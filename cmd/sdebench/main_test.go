package main

import (
	"bytes"
	"strings"
	"testing"

	"subdex/internal/experiments"
)

// TestBenchRejectsNonPositiveParams pins the usage check: a non-positive
// -scale or -subjects is an error (exit 2) before any experiment runs,
// not a silent fallback to some other point.
func TestBenchRejectsNonPositiveParams(t *testing.T) {
	for _, p := range []experiments.Params{
		{Scale: 0, Seed: 1, Subjects: 30},
		{Scale: -0.2, Seed: 1, Subjects: 30},
		{Scale: 0.2, Seed: 1, Subjects: 0},
		{Scale: 0.2, Seed: 1, Subjects: -3},
	} {
		var stdout, stderr bytes.Buffer
		if code := bench("table2", false, p, &stdout, &stderr); code != 2 {
			t.Errorf("%+v: exit %d, want 2", p, code)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "must be positive") {
			t.Errorf("%+v: stdout %q, stderr %q", p, stdout.String(), stderr.String())
		}
	}
}

// TestBenchPrintsTheRenderedTables: what sdebench prints on stdout is
// experiments.Render of the run, and nothing else.
func TestBenchPrintsTheRenderedTables(t *testing.T) {
	p := experiments.Params{Scale: 0.01, Seed: 1, Subjects: 3}
	var stdout, stderr bytes.Buffer
	if code := bench("table2", false, p, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	tables, err := experiments.Table2(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := experiments.Render(tables); stdout.String() != want {
		t.Errorf("stdout:\n%s\nwant:\n%s", stdout.String(), want)
	}
	if code := bench("nope", false, p, &stdout, &stderr); code != 2 {
		t.Errorf("unknown experiment: exit %d, want 2", code)
	}
}
