package checks

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"gator/internal/alite"
	"gator/internal/core"
	"gator/internal/layout"
)

var update = flag.Bool("update", false, "rewrite golden expected.txt files")

// TestGolden runs every checker against its minimal app under
// testdata/<check-id>/ and compares the findings for that checker against
// expected.txt. Each directory holds one app: *.alite sources plus *.xml
// layouts (the layout name is the file name without extension). Regenerate
// with `go test ./internal/checks -run TestGolden -update`.
func TestGolden(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	sort.Strings(dirs)
	covered := map[string]bool{}
	for _, dir := range dirs {
		covered[dir] = true
		t.Run(dir, func(t *testing.T) {
			if _, ok := PassByID(dir); !ok {
				t.Fatalf("testdata/%s does not name a registered checker", dir)
			}
			res := analyzeDir(t, filepath.Join("testdata", dir))
			var lines []string
			for _, f := range findingsOf(Run(res), dir) {
				lines = append(lines, f.String())
			}
			got := strings.Join(lines, "\n") + "\n"
			goldenPath := filepath.Join("testdata", dir, "expected.txt")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings differ from %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
			}
			if len(lines) == 0 {
				t.Errorf("golden app for %s triggers no %s finding", dir, dir)
			}
		})
	}
	// Every registered checker must have a golden app.
	for _, p := range All() {
		if !covered[p.ID] {
			t.Errorf("checker %s has no testdata/%s golden app", p.ID, p.ID)
		}
	}
}

// analyzeDir loads and analyzes the app in one testdata directory.
func analyzeDir(t *testing.T, dir string) *core.Result {
	t.Helper()
	files, layouts := loadDir(t, dir)
	return solveApp(t, dir, files, layouts, core.Options{}).res
}

// loadDir parses the app in one testdata directory: *.alite sources and
// *.xml layouts.
func loadDir(t *testing.T, dir string) ([]*alite.File, map[string]*layout.Layout) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*alite.File
	layouts := map[string]*layout.Layout{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		switch filepath.Ext(e.Name()) {
		case ".alite":
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := alite.Parse(e.Name(), string(src))
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		case ".xml":
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			name := strings.TrimSuffix(e.Name(), ".xml")
			l, err := layout.Parse(name, string(src))
			if err != nil {
				t.Fatal(err)
			}
			layouts[name] = l
		}
	}
	return files, layouts
}
