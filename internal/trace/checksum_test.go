package trace

import "testing"

func checksumTrace() *Trace {
	e := NewEmitter("sum")
	e.Compute(3)
	e.Branch(0x10, true)
	e.LoadSpec(MemSpec{PC: 0x20, Addr: 0x1000, Dep: -1,
		Hints: SWHints{Valid: true, TypeID: 7, LinkOffset: 16, RefForm: RefArrow}})
	e.Store(0x30, 0x2000)
	return e.Finish()
}

func TestChecksumStable(t *testing.T) {
	a, b := checksumTrace(), checksumTrace()
	if a.Checksum() != b.Checksum() {
		t.Fatal("identical traces produced different checksums")
	}
	if a.Checksum() != a.Checksum() {
		t.Fatal("checksum not idempotent")
	}
}

func TestChecksumDetectsMutation(t *testing.T) {
	tr := checksumTrace()
	orig := tr.Checksum()

	mutations := []func(*Trace){
		func(t *Trace) { t.Name = "other" },
		func(t *Trace) { t.Records[2].Addr++ },
		func(t *Trace) { t.Records[2].Value ^= 1 },
		func(t *Trace) { t.Records[1].Taken = false },
		func(t *Trace) { t.Records[2].Hints.LinkOffset = 24 },
		func(t *Trace) { t.Records[2].Hints.Valid = false },
		func(t *Trace) { t.Records[0].Count++ },
		func(t *Trace) { t.Records[2].PC ^= 1 << 63 },
		func(t *Trace) { t.Records[2].Reg++ },
		func(t *Trace) { t.Records[2].Dep = 0 },
		func(t *Trace) { t.Records[2].Kind = KindStore },
		func(t *Trace) { t.Records[2].Size = 4 },
		func(t *Trace) { t.Records[2].Hints.TypeID = 8 },
		func(t *Trace) { t.Records[2].Hints.RefForm = RefDot },
		func(t *Trace) { t.Records = t.Records[:len(t.Records)-1] },
	}
	for i, mut := range mutations {
		m := checksumTrace()
		mut(m)
		if m.Checksum() == orig {
			t.Errorf("mutation %d not reflected in checksum", i)
		}
	}
}
