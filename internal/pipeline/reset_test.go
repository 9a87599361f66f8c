package pipeline_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"phantom/internal/btb"
	"phantom/internal/isa"
	"phantom/internal/kernel"
	"phantom/internal/mem"
	"phantom/internal/pipeline"
	"phantom/internal/telemetry"
	"phantom/internal/uarch"
)

// resetCovered names every Machine field and how TestResetEqualsNew
// reaches it: dirtied before the reset, and observed through the probe.
// A field missing here fails the test, so a new field cannot slip past
// Reset unexamined.
var resetCovered = map[string]string{
	"Prof":               "kept: Reset restores New(m.Prof, ...)",
	"MSR":                "MSR writes; the probe's Phantom episode",
	"Phys":               "kernel image and SMC store; the probe's loads",
	"UserAS":             "boot and user mappings; the probe maps the same VAs",
	"KernelAS":           "kernel mappings; the probe's kernel-mode runs",
	"Hier":               "every run; per-level hit and miss counts",
	"Uop":                "every run; hit and miss counts",
	"ITLB":               "every run; hit and miss counts",
	"DTLB":               "every run; hit and miss counts",
	"BTB":                "syscall and SMC runs; StateDigest",
	"RSB":                "syscall runs; StateDigest",
	"PHT":                "syscall runs; StateDigest",
	"Regs":               "every run; compared after the probe",
	"ZF":                 "every run; compared after Reset and after the probe",
	"CF":                 "every run; compared after Reset and after the probe",
	"RIP":                "every run; compared after Reset and after the probe",
	"Kernel":             "set by hand; compared after the probe",
	"Cycle":              "every run; compared after the probe",
	"Perf":               "every run; compared after the probe",
	"Debug":              "every run; compared after the probe",
	"SyscallEntry":       "kernel boot; a stray syscall would enter it",
	"KPTI":               "kernel boot; charged on the probe's sysret",
	"Noise":              "level 1 with sibling stress; draws and L1I traffic",
	"Tracer":             "traced runs; compared after Reset",
	"DisablePredecode":   "reference-fetch context; predecode counts",
	"DisableSpeculation": "set by hand; the probe's Phantom episode",
	"rng":                "noise draws; the next 100 RNG draws",
	"ctx":                "cancelled context; the probe's runs would stop",
	"done":               "cancelled context; the probe's runs would stop",
	"pre":                "SMC run; predecode counts (a stale line could only miss, a kept chunk starts empty)",
	"fmemo":              "every fetch; a stale memo cannot match a moved epoch",
	"tstat":              "hub on; the probe's pipeline_* counter deltas",
	"tshard":             "hub on; counter sums do not depend on the shard",
	"tlast":              "hub on; the probe's pipeline_* counter deltas",
	"stopScratch":        "every stop; written before each read",
	"faultScratch":       "the SMC run's fault; written before each read",
	"instScratch":        "cross-page and reference-fetch decodes; written before each read",
	"syscallRet":         "syscall runs; the probe's sysret",
	"lastFetchLine":      "every run; first-line fetch charges",
	"lastUopLine":        "every run; first-line µop charges",
	"lastUopLineMissed":  "every run; written with lastUopLine before a read",
}

// Physical pages of the probe. The page dirty writes its self-modifying
// code to is the probe's data page, so a frame that outlives Reset shows
// in the probe's loads, and a mapping that outlives it in a probe load
// from smcVA.
const (
	probeCodePA = 0x1000000 // one page per snippet, upward
	probeDataPA = 0x1800000
	smcVA       = 0x500000 // dirty's self-modifying code page
)

// TestResetEqualsNew: a machine dirtied every way a harness can dirty
// it, then Reset(seed), must be indistinguishable from New(prof, size,
// seed) on every observable: a probe program gives the same run results,
// clock, counters, predictor digests, cache and TLB statistics, trace
// events, telemetry counts and RNG draws.
func TestResetEqualsNew(t *testing.T) {
	telemetry.Enable(telemetry.Config{})
	defer telemetry.Disable() //nolint:errcheck // no run log to flush

	typ := reflect.TypeOf(pipeline.Machine{})
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; resetCovered[name] == "" {
			t.Errorf("Machine.%s is not covered: make Reset restore it, dirty it below, and name it in resetCovered", name)
		}
	}

	const seed = 42
	for _, prof := range uarch.All() {
		t.Run(prof.Name, func(t *testing.T) {
			k, err := kernel.Boot(prof, kernel.Config{Seed: 7, KPTI: true, NoiseLevel: 1})
			if err != nil {
				t.Fatal(err)
			}
			dirty(t, k)
			m := k.M
			m.Reset(seed)
			fresh := pipeline.New(prof, m.Phys.Size(), seed)
			// The exported state a harness reads or sets directly, before
			// anything runs (the probe sets RIP and the tracer itself).
			rv, fv := reflect.ValueOf(m).Elem(), reflect.ValueOf(fresh).Elem()
			for i := 0; i < rv.NumField(); i++ {
				f := rv.Type().Field(i)
				if f.IsExported() && f.Type.Kind() != reflect.Pointer &&
					!reflect.DeepEqual(rv.Field(i).Interface(), fv.Field(i).Interface()) {
					t.Errorf("after Reset, %s = %+v; New gives %+v", f.Name, rv.Field(i).Interface(), fv.Field(i).Interface())
				}
			}
			got := runProbe(t, m)
			want := runProbe(t, fresh)
			g, w := reflect.ValueOf(got), reflect.ValueOf(want)
			for i := 0; i < g.NumField(); i++ {
				if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
					t.Errorf("%s: reset machine %+v, new machine %+v",
						g.Type().Field(i).Name, g.Field(i).Interface(), w.Field(i).Interface())
				}
			}
			if len(want.Events) == 0 || want.Debug.FrontendResteers == 0 {
				t.Errorf("the probe ran no Phantom episode (%d events, %d frontend resteers)",
					len(want.Events), want.Debug.FrontendResteers)
			}
		})
	}
}

// TestMachineRNGDrawsAsSeeded: the machine RNG, seeded on its first draw,
// draws exactly what rand.New(rand.NewSource(seed)) draws, after New and
// after Reset, through every path math/rand takes to its source.
func TestMachineRNGDrawsAsSeeded(t *testing.T) {
	m := pipeline.New(uarch.Zen2(), 1<<30, 3)
	check := func(seed int64) {
		t.Helper()
		ref := rand.New(rand.NewSource(seed))
		got := m.RNG()
		for i := 0; i < 50; i++ {
			if g, w := got.Int63(), ref.Int63(); g != w {
				t.Fatalf("seed %d draw %d: Int63 %d, want %d", seed, i, g, w)
			}
			if g, w := got.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 %d, want %d", seed, i, g, w)
			}
			if g, w := got.Float64(), ref.Float64(); g != w {
				t.Fatalf("seed %d draw %d: Float64 %v, want %v", seed, i, g, w)
			}
			if g, w := got.Intn(1000), ref.Intn(1000); g != w {
				t.Fatalf("seed %d draw %d: Intn %d, want %d", seed, i, g, w)
			}
		}
	}
	check(3)
	m.Reset(-9)
	check(-9)
	m.Reset(3) // reseeding a source that has already drawn
	check(3)
}

// eventLog is a Tracer that keeps every event.
type eventLog []pipeline.Event

func (l *eventLog) Emit(e pipeline.Event) { *l = append(*l, e) }

// dirty moves every part of k's machine away from its New state: MSRs,
// noise with sibling stress, a traced KPTI syscall round trip (BTB, RSB,
// PHT, caches, TLBs), a self-modifying store over predecoded code,
// the reference-fetch and speculation switches, and a cancelled bound
// context.
func dirty(t *testing.T, k *kernel.Kernel) {
	t.Helper()
	m := k.M
	m.WriteMSRSuppressBPOnNonBr(true)
	m.WriteMSRAutoIBRS(false)
	m.MSR.IBPBOnKernelEntry = true
	m.Noise.Level, m.Noise.SiblingStress = 1, 10
	var log eventLog
	m.Tracer = &log
	for i := 0; i < 3; i++ {
		if _, err := k.Syscall(kernel.SysGetpid); err != nil {
			t.Fatal(err)
		}
	}

	// Self-modifying code: a call (filling the RSB, and the stack at the
	// page's end), then a store over the call's bytes after their line
	// was predecoded, then a fault on the next page.
	a := isa.NewAssembler(smcVA)
	a.Call("body")
	a.Label("body")
	a.MovImm(isa.RAX, 0x1234)
	a.Store(isa.RDI, 2, isa.RAX)
	a.Load(isa.RCX, isa.RSI, 0)
	a.Hlt()
	blob := a.MustBytes()
	if err := m.UserAS.Map(smcVA, probeDataPA, mem.PageSize, mem.PermRead|mem.PermWrite|mem.PermExec|mem.PermUser); err != nil {
		t.Fatal(err)
	}
	if err := m.UserAS.WriteBytes(smcVA, blob); err != nil {
		t.Fatal(err)
	}
	m.Regs[isa.RDI], m.Regs[isa.RSI] = smcVA, smcVA+mem.PageSize
	m.Regs[isa.RSP] = smcVA + mem.PageSize - 64
	m.RunAt(smcVA, 100)
	if m.Debug.Faults == 0 {
		t.Fatal("the SMC run did not fault")
	}

	m.Kernel = true
	m.DisableSpeculation = true
	ctx, cancel := context.WithCancel(pipeline.WithReferenceFetch(context.Background()))
	cancel()
	m.Bind(ctx)
	if !m.DisablePredecode || len(log) == 0 {
		t.Fatal("dirtying missed the reference-fetch switch or the tracer")
	}
}

// probeResult is everything TestResetEqualsNew observes of one machine.
type probeResult struct {
	Runs           []pipeline.RunResult
	TimedLoad      int
	Regs           [isa.NumRegs]uint64
	ZF, CF, Kernel bool
	RIP, Cycle     uint64
	Perf           pipeline.PerfCounters
	Debug          pipeline.DebugCounters
	BTB, RSB, PHT  uint64
	Caches, TLBs   [][2]uint64 // hits, misses
	Events         eventLog
	Telemetry      map[string]uint64 // counter deltas over the probe
	FirstDraw      int64
	Draws          []int64
}

// runProbe lays out the Figure 4 experiment in user mode (a jmp* trainer
// at A, nops at the aliased B, a load gadget at C) plus a store loop
// over a data page, run again in kernel mode to end in a sysret, and a
// halt at VA 0 (the first line fetched, and where that sysret returns),
// runs it traced with noise at its default level, and collects every
// observable.
func runProbe(t *testing.T, m *pipeline.Machine) probeResult {
	t.Helper()
	var r probeResult
	m.Tracer = &r.Events
	before := telemetry.Active().Registry().Snapshot().Counters
	mask, ok := btb.SamePrivAliasMask(m.BTB.Scheme())
	if !ok {
		t.Fatal("no same-privilege alias mask")
	}
	const (
		aVA    = 0x400000 + 0x6a0
		cVA    = 0x7f0000 + 0xac0
		loopVA = 0x900000
		dataVA = 0x600000
	)
	bVA := uint64(aVA) ^ mask
	pa := uint64(probeCodePA)
	install := func(a *isa.Assembler) {
		t.Helper()
		base := a.Base() &^ (mem.PageSize - 1)
		if err := m.UserAS.Map(base, pa, mem.PageSize, mem.PermRead|mem.PermExec|mem.PermUser); err != nil {
			t.Fatal(err)
		}
		pa += mem.PageSize
		if err := m.UserAS.WriteBytes(a.Base(), a.MustBytes()); err != nil {
			t.Fatal(err)
		}
	}
	za := isa.NewAssembler(0)
	za.Hlt()
	install(za)
	ta := isa.NewAssembler(aVA)
	ta.JmpReg(isa.RDI)
	install(ta)
	va := isa.NewAssembler(bVA)
	va.NopSled(16)
	va.Hlt()
	install(va)
	ca := isa.NewAssembler(cVA)
	ca.Load(isa.RAX, isa.R8, 0)
	ca.Hlt()
	install(ca)
	la := isa.NewAssembler(loopVA)
	la.MovImm(isa.RCX, 48)
	la.Label("top")
	la.Load(isa.RAX, isa.R8, 0)
	la.AddReg(isa.RBX, isa.RAX)
	la.AluImm(isa.AluAdd, isa.RAX, 3)
	la.Store(isa.R8, 8, isa.RAX)
	la.AluImm(isa.AluAdd, isa.R8, 80)
	la.AluImm(isa.AluSub, isa.RCX, 1)
	la.Jcc(isa.CondNZ, "top")
	la.Rdtsc()
	la.Syscall() // user mode: traps (no kernel); kernel mode: sysret to 0
	install(la)
	if err := m.UserAS.Map(dataVA, probeDataPA, mem.PageSize, mem.PermRead|mem.PermWrite|mem.PermUser); err != nil {
		t.Fatal(err)
	}

	r.FirstDraw = m.RNG().Int63()
	r.Runs = append(r.Runs, m.RunAt(0, 10))
	for i := 0; i < 3; i++ {
		m.Regs[isa.RDI], m.Regs[isa.R8] = cVA, dataVA
		r.Runs = append(r.Runs, m.RunAt(aVA, 100))
	}
	m.Regs[isa.R8] = dataVA
	r.Runs = append(r.Runs, m.RunAt(bVA, 100))
	m.Regs[isa.R8] = dataVA
	r.Runs = append(r.Runs, m.RunAt(loopVA, 1000))
	m.Regs[isa.R8] = smcVA // mapped before the reset only: faults
	r.Runs = append(r.Runs, m.RunAt(cVA, 10))
	m.Kernel = true // the victim again, under the supervisor BTB tag
	r.Runs = append(r.Runs, m.RunAt(bVA, 10))
	m.Regs[isa.R8] = dataVA
	r.Runs = append(r.Runs, m.RunAt(loopVA, 1000))
	r.TimedLoad, _ = m.TimedLoad(dataVA)

	r.Regs, r.ZF, r.CF, r.Kernel, r.RIP, r.Cycle = m.Regs, m.ZF, m.CF, m.Kernel, m.RIP, m.Cycle
	r.Perf, r.Debug = m.Perf, m.Debug
	r.BTB, r.RSB, r.PHT = m.BTB.StateDigest(), m.RSB.StateDigest(), m.PHT.StateDigest()
	r.Caches = [][2]uint64{
		{m.Hier.L1I.Hits, m.Hier.L1I.Misses}, {m.Hier.L1D.Hits, m.Hier.L1D.Misses},
		{m.Hier.L2.Hits, m.Hier.L2.Misses}, {m.Uop.Hits, m.Uop.Misses},
	}
	r.TLBs = [][2]uint64{{m.ITLB.Hits, m.ITLB.Misses}, {m.DTLB.Hits, m.DTLB.Misses}}
	r.Telemetry = make(map[string]uint64)
	for name, v := range telemetry.Active().Registry().Snapshot().Counters {
		r.Telemetry[name] = v - before[name]
	}
	for i := 0; i < 100; i++ {
		r.Draws = append(r.Draws, m.RNG().Int63())
	}
	m.Tracer = nil
	return r
}
