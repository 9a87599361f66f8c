package main

// pinned holds the SHA-256 of each batch workload's rendered output at
// its unit's scale for the default seed (1) and one held-out seed (7),
// recorded when the benchmark was defined.
var pinned = map[string]map[int64]string{
	"report": {
		1: "31ea6dc3e4f9fc2c3d74d3514d18323dfa58192f63caf254c2767fb88dea3c0b",
		7: "30c402bd8d0faf71b632c07dd19ba7626a772942e3abc72f01cef3dad93d63b6",
	},
	"kaslr_reboots": {
		1: "43616780d4ac9ebbe83452b7e5b6c2df5430b38a392984e18c74b50cd8fdba92",
		7: "43616780d4ac9ebbe83452b7e5b6c2df5430b38a392984e18c74b50cd8fdba92",
	},
	"search": {
		1: "54ffa290a0aa669dc4815ef992d125c1a49679d3d37daeba191d2de38847be7b",
		7: "cac6a30e9337a3d88b2d335d9563449542eed64b720f88376cdcb01cf54756de",
	},
}

// pinnedOK reports whether text matches the digest pinned for the
// workload at seed; seeds without a pinned digest pass.
func pinnedOK(workload string, seed int64, text string) bool {
	want, ok := pinned[workload][seed]
	return !ok || digest(text) == want
}

// outputs checks a batch workload's untraced outputs: against the
// digest pinned for the input seed, when the run is not a probe, and
// against the first output the run rendered for the same seed. A
// traced unit compares its decomposition with first.
type outputs struct {
	workload string
	full     bool
	first    map[int64]string
}

func newOutputs(workload string, full bool) outputs {
	return outputs{workload: workload, full: full, first: make(map[int64]string)}
}

func (o *outputs) accept(seed int64, text string) bool {
	if o.full && !pinnedOK(o.workload, seed, text) {
		return false
	}
	want, ok := o.first[seed]
	if !ok {
		o.first[seed] = text
		return true
	}
	return text == want
}
