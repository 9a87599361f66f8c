package mem

import "testing"

// primeSetVAs are the pages of the image KASLR break's four I-cache
// prime sets: eight ways of 4 KiB from 0x7f3000000000, one set per
// MiB. Their VPNs agree in their low 8 bits eight pages at a time.
func primeSetVAs() []uint64 {
	var vas []uint64
	for i := uint64(0); i < 4; i++ {
		for way := uint64(0); way < 8; way++ {
			vas = append(vas, 0x7f3000000000+i*0x100000+way*PageSize)
		}
	}
	return vas
}

// BenchmarkTranslate translates, round robin, the 32 pages of the image
// KASLR break's four prime sets and one training page, as user fetches:
// the pages a Prime+Probe round touches. One op is one translation.
func BenchmarkTranslate(b *testing.B) {
	as := NewAddrSpace(NewPhysMem(1 << 30))
	vas := append(primeSetVAs(), 0x7f0000400000)
	for i, va := range vas {
		if err := as.Map(va, uint64(i+1)*PageSize, PageSize, PermRead|PermExec|PermUser); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := as.TranslateV(vas[i%len(vas)]+0x540, AccessFetch, true); !ok {
			b.Fatal("mapped page faulted")
		}
	}
}
