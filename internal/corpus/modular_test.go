package corpus

import (
	"strings"
	"testing"
)

func TestModularEdits(t *testing.T) {
	sources, _ := ModularApp(2)
	base := sources["act1.alite"]
	edits := ModularEdits(sources)
	for i, want := range []string{"\t\tthis.stash = btn;\n", "\t\tthis.stash = p;\n"} {
		if edits[i] == base || !strings.Contains(edits[i], want) || strings.Contains(edits[i], "this.stash = back;") {
			t.Errorf("edit %d does not retarget the stash assignment to %q:\n%s", i, want, edits[i])
		}
	}
	if sources["act1.alite"] != base {
		t.Error("ModularEdits modified its input")
	}

	defer func() {
		if recover() == nil {
			t.Error("ModularEdits accepted a source without the stash assignment")
		}
	}()
	chain, _ := ModularChainApp(2, 2)
	ModularEdits(chain)
}
