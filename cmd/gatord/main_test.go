package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gator/internal/flagdoc"
)

func TestNewLoggerLevelsAndFormats(t *testing.T) {
	var buf bytes.Buffer
	log, err := newLogger(&buf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	log.Debug("hidden")
	log.Info("shown", "route", "/v1/analyze")
	if strings.Contains(buf.String(), "hidden") {
		t.Fatal("debug line emitted at info level")
	}
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v\n%s", err, buf.String())
	}
	if rec["route"] != "/v1/analyze" || rec["msg"] != "shown" {
		t.Fatalf("unexpected record %v", rec)
	}

	if _, err := newLogger(&buf, "loud", "json"); err == nil {
		t.Fatal("unknown level accepted")
	}
	if _, err := newLogger(&buf, "info", "xml"); err == nil {
		t.Fatal("unknown format accepted")
	}
	if _, err := newLogger(&buf, "", ""); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	text, err := newLogger(&buf, "warn", "text")
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	text.Warn("plain")
	if !strings.Contains(buf.String(), "msg=plain") {
		t.Fatalf("text handler output %q", buf.String())
	}
}

// TestFlagsMatchREADME: gatord's flag set is exactly the rows of its
// README table, each of which names what justifies the flag.
func TestFlagsMatchREADME(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI exec test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "gatord")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	usage, err := exec.Command(bin, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("-h: %v\n%s", err, usage)
	}
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := flagdoc.Table(readme, "gatord")
	if err != nil {
		t.Fatal(err)
	}
	if got := flagdoc.Usage(usage); !slices.Equal(got, want) {
		t.Errorf("gatord flags %v, README table %v", got, want)
	}
}
