package search

import (
	"context"
	"reflect"
	"testing"
)

// TestRigReassemblesEditedProgram: a program edited in place after a
// diff on a rig diffs on that rig as on a new one. The rig reuses the
// code of the last program it assembled only while the statements it
// compares are equal, and it keeps a copy of them, not the program's
// slices.
func TestRigReassemblesEditedProgram(t *testing.T) {
	ctx := context.Background()
	var r rig
	for it := 0; it < 50; it++ {
		p := Generate("zen2", deriveSeed(13, it))
		if _, err := runDiff(ctx, &r, p); err != nil {
			t.Fatal(err)
		}
		p.Victim[len(p.Victim)-1] = "mov [rsi+8], rbx"
		p.Gadget[0] = "nop5"
		got, err := runDiff(ctx, &r, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := runDiff(ctx, &rig{}, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("program %d edited in place: reused rig diff\n%+v\nnew rig\n%+v", it, got, want)
		}
	}
}
