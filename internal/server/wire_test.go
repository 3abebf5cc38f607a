package server

// The wire contract: request and response bodies are the library's own
// types (gator.Options, report.Request, gator.IncrementalStats), so a
// change to one of those types changes what clients send and receive. The
// key sets written out below pin the wire.

import (
	"encoding/json"
	"errors"
	"net/http"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"gator"
	"gator/internal/trace"
)

// keySet lists the keys of a JSON object, descending into the nested
// "options" and "incremental" objects as "options.<key>".
func keySet(t *testing.T, v any) []string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(data, &obj); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k, raw := range obj {
		keys = append(keys, k)
		if k == "options" || k == "incremental" {
			var nested map[string]json.RawMessage
			if err := json.Unmarshal(raw, &nested); err != nil {
				t.Fatal(err)
			}
			for nk := range nested {
				keys = append(keys, k+"."+nk)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// TestWireKeySets marshals every body type fully populated and compares
// its key set with the wire's; the nested options and incremental objects
// must also keep their exact bytes.
func TestWireKeySets(t *testing.T) {
	opts := gator.Options{
		FilterCasts: true, SharedInflation: true, NoFindView3Refinement: true,
		DeclaredDispatchOnly: true, ContextSensitivity: gator.Ctx1CFA, Provenance: true,
		// Never on the wire.
		ReferenceSolver: true, Trace: trace.New(&trace.Collect{}).Scope("app", 0),
	}
	spec := ReportSpec{Report: "views", Explain: "A.m.v", Seed: 2, Checks: []string{"dangling-findview"}}
	files := map[string]string{"a.alite": "class A {}"}
	incr := &gator.IncrementalStats{Mode: "scratch", Reason: "layouts changed", Retained: 1, Retracted: 2, DirtyUnits: []string{"a.alite"}}

	options := []string{"options", "options.contextSensitivity", "options.declaredDispatchOnly",
		"options.filterCasts", "options.noFindView3", "options.provenance", "options.sharedInflation"}
	cases := []struct {
		name string
		v    any
		want []string
	}{
		{"AnalyzeRequest",
			AnalyzeRequest{Name: "app", Sources: files, Layouts: files, Options: opts, ReportSpec: spec, NoCache: true},
			append([]string{"checks", "explain", "layouts", "name", "noCache", "report", "seed", "sources"}, options...)},
		{"PatchRequest",
			PatchRequest{Sources: files, Layouts: files, RemoveSources: []string{"b"}, RemoveLayouts: []string{"c"}, Replace: true, ReportSpec: spec},
			[]string{"checks", "explain", "layouts", "removeLayouts", "removeSources", "replace", "report", "seed", "sources"}},
		{"AnalyzeResponse",
			AnalyzeResponse{Name: "app", Report: "views", ExitCode: 1, Output: "o", Stderr: "e", Cached: true,
				ElapsedMs: 1.5, SessionID: "s", Incremental: incr},
			[]string{"cached", "elapsedMs", "exitCode", "incremental", "incremental.dirtyUnits", "incremental.mode",
				"incremental.reason", "incremental.retained", "incremental.retracted", "name", "output", "report",
				"sessionId", "stderr"}},
		{"SessionInfo",
			SessionInfo{SessionID: "s", Name: "app", Sources: []string{"a.alite"}, Layouts: []string{"main"}, Patches: 3, Options: opts},
			append([]string{"layouts", "name", "patches", "sessionId", "sources"}, options...)},
	}
	for _, c := range cases {
		want := append([]string(nil), c.want...)
		sort.Strings(want)
		if got := keySet(t, c.v); !reflect.DeepEqual(got, want) {
			t.Errorf("%s keys:\n got %v\nwant %v", c.name, got, want)
		}
	}

	for _, c := range []struct {
		v    any
		want string
	}{
		{opts, `{"filterCasts":true,"sharedInflation":true,"noFindView3":true,"declaredDispatchOnly":true,"contextSensitivity":"1cfa","provenance":true}`},
		{gator.Options{}, `{}`},
		{incr, `{"mode":"scratch","reason":"layouts changed","retained":1,"retracted":2,"dirtyUnits":["a.alite"]}`},
		{gator.IncrementalStats{Mode: "warm"}, `{"mode":"warm"}`},
	} {
		data, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != c.want {
			t.Errorf("%T marshals to %s, want %s", c.v, data, c.want)
		}
	}
}

// TestWireRejectsLibraryOnlyFields: the engine choice and the trace scope
// are Options fields but not wire fields, so naming them is a 400 for an
// unknown field; and the removed batch route is gone.
func TestWireRejectsLibraryOnlyFields(t *testing.T) {
	_, c := newTestServer(t, Config{})
	for _, field := range []string{"referenceSolver", "trace"} {
		value := "true"
		if field == "trace" {
			value = "{}"
		}
		err := c.do("POST", "/v1/analyze", json.RawMessage(
			`{"sources":{"a.alite":"class A {}"},"options":{"`+field+`":`+value+`}}`), nil)
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusBadRequest || !strings.Contains(se.Msg, `unknown field "`+field+`"`) {
			t.Errorf("options.%s: %v, want 400 naming the unknown field", field, err)
		}
	}

	err := c.do("POST", "/v1/batch", json.RawMessage(`{"apps":[]}`), nil)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Errorf("POST /v1/batch: %v, want 404", err)
	}
}

// TestOrderExplainNeedsNoProvenance: gatord decides provenance by the
// CLI's rule (report.Request.NeedsProvenance), so an order: explain — which
// the lifecycle table answers — neither needs a provenance session nor
// turns one on.
func TestOrderExplainNeedsNoProvenance(t *testing.T) {
	_, c := newTestServer(t, Config{})
	sources, layouts, err := gator.ReadAppDir(filepath.Join("..", "..", "examples", "lifecycleapp"))
	if err != nil {
		t.Fatal(err)
	}
	order := ReportSpec{Explain: "order:Main.onDestroy.onResume"}
	want, err := c.Analyze(AnalyzeRequest{Name: "lifecycleapp", Sources: sources, Layouts: layouts, ReportSpec: order})
	if err != nil {
		t.Fatal(err)
	}
	if want.ExitCode != 0 || !strings.Contains(want.Output, "canFollow(Main.onDestroy, Main.onResume)") {
		t.Fatalf("analyze %s: exit %d\n%s%s", order.Explain, want.ExitCode, want.Output, want.Stderr)
	}

	t.Run("plain session answers it", func(t *testing.T) {
		plain, err := c.OpenSession(AnalyzeRequest{Name: "lifecycleapp", Sources: sources, Layouts: layouts})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.PatchSession(plain.SessionID, PatchRequest{ReportSpec: order})
		if err != nil {
			t.Fatalf("patch with %s on a session without provenance: %v", order.Explain, err)
		}
		if got.Output != want.Output || got.ExitCode != want.ExitCode {
			t.Fatalf("patch explain differs from /v1/analyze\npatch:\n%s\nanalyze:\n%s", got.Output, want.Output)
		}
	})

	t.Run("session opened with it stays warm", func(t *testing.T) {
		explained, err := c.OpenSession(AnalyzeRequest{Name: "lifecycleapp", Sources: sources, Layouts: layouts, ReportSpec: order})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.PatchSession(explained.SessionID, PatchRequest{
			Sources:    map[string]string{"app.alite": sources["app.alite"] + "\n// body edit\n"},
			ReportSpec: order,
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Incremental == nil || resp.Incremental.Mode != "warm" {
			t.Fatalf("body edit on a session opened with %s: %+v, want warm", order.Explain, resp.Incremental)
		}
		if resp.Output != want.Output {
			t.Fatalf("warm explain differs from /v1/analyze\npatch:\n%s\nanalyze:\n%s", resp.Output, want.Output)
		}
		if info, err := c.SessionInfo(explained.SessionID); err != nil || info.Options.Provenance {
			t.Fatalf("session opened with %s: %+v, %v; want no provenance", order.Explain, info, err)
		}
	})
}
