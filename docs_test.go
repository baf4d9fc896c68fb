package subdex_test

import (
	"os"
	"slices"
	"strings"
	"testing"

	"subdex/internal/experiments"
)

// The size limits of the documents that grow with every change: README.md
// says what the system does and points at DESIGN.md for how, DESIGN.md
// keeps the design, and the measurements and the history behind it live
// in EXPERIMENTS.md; a CHANGES.md entry is one paragraph, and the full
// account is EXPERIMENTS.md "PR n".
const (
	maxReadmeLines     = 700
	maxDesignLines     = 800
	maxChangesLineSize = 1500 // bytes, an upper bound on characters
)

// TestDocsStayReadable fails when README.md passes maxReadmeLines lines,
// DESIGN.md passes maxDesignLines lines or a CHANGES.md line passes
// maxChangesLineSize.
func TestDocsStayReadable(t *testing.T) {
	for _, doc := range []struct {
		name, where string
		max         int
	}{
		{"README.md", "point at DESIGN.md instead of repeating it", maxReadmeLines},
		{"DESIGN.md", "move measurements and history to EXPERIMENTS.md", maxDesignLines},
	} {
		raw, err := os.ReadFile(doc.name)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(raw), "\n"); n > doc.max {
			t.Errorf("%s has %d lines, over %d: %s", doc.name, n, doc.max, doc.where)
		}
	}
	changes, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(changes), "\n") {
		if len(line) > maxChangesLineSize {
			t.Errorf("CHANGES.md:%d is %d bytes, over %d: keep one paragraph and move the rest to EXPERIMENTS.md under its PR", i+1, len(line), maxChangesLineSize)
		}
	}
}

// TestExperimentIndexIsTheRegistry holds the Id column of DESIGN.md
// "Per-experiment index" equal, in order, to experiments.All(): the ids
// `sdebench -list` prints and `-run` accepts.
func TestExperimentIndexIsTheRegistry(t *testing.T) {
	var registry, index []string
	for _, e := range experiments.All() {
		registry = append(registry, e.ID)
	}
	for _, line := range strings.Split(docSection(t, "DESIGN.md", "## Per-experiment index"), "\n") {
		if !strings.HasPrefix(line, "| ") || strings.HasPrefix(line, "| Id |") {
			continue
		}
		id, _, _ := strings.Cut(strings.TrimPrefix(line, "| "), " |")
		index = append(index, id)
	}
	for _, id := range registry {
		if !slices.Contains(index, id) {
			t.Errorf("experiment %s has no row in DESIGN.md \"Per-experiment index\"", id)
		}
	}
	for _, id := range index {
		if !slices.Contains(registry, id) {
			t.Errorf("DESIGN.md \"Per-experiment index\" has a row for %s, which experiments.All() does not have", id)
		}
	}
	if !t.Failed() && !slices.Equal(index, registry) {
		t.Errorf("DESIGN.md \"Per-experiment index\" lists %v; experiments.All() is %v", index, registry)
	}
}

// docSection returns the text of file under heading, up to the next
// heading of the same or a higher level.
func docSection(t *testing.T, file, heading string) string {
	t.Helper()
	doc, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n"+heading+"\n")
	if !ok {
		t.Fatalf("%s has no %q section", file, heading)
	}
	level, _, _ := strings.Cut(heading, " ")
	if end := strings.Index(section, "\n"+level+" "); end >= 0 {
		section = section[:end]
	}
	return section
}
