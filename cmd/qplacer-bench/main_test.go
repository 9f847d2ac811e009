package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// writeDoc marshals a Document into a temp file and returns its path.
func writeDoc(t *testing.T, doc Document) string {
	t.Helper()
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return writeRaw(t, string(data))
}

// writeRaw writes a document's bytes into a temp file and returns its path.
func writeRaw(t *testing.T, data string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func entry(topo string) Entry {
	return Entry{
		Topology: topo, Placer: "nesterov", Legalizer: "shelf",
		NsPerIter: 1000, HPWLmm: 12.5, Overflow: 0.07, PhPercent: 0,
	}
}

// TestCheckAcceptsAValidDocument: a parsed document with entries and
// positive timings passes.
func TestCheckAcceptsAValidDocument(t *testing.T) {
	doc := Document{Entries: []Entry{entry("grid"), entry("eagle")}}
	if err := checkDocument(writeDoc(t, doc)); err != nil {
		t.Fatal(err)
	}
}

// TestCheckRejectsBrokenDocuments covers each invariant -check enforces:
// the document parses (which also keeps every quality column finite), has
// entries, and every entry has a positive ns_per_iter.
func TestCheckRejectsBrokenDocuments(t *testing.T) {
	zero := entry("grid")
	zero.NsPerIter = 0
	for name, path := range map[string]string{
		"missing file":       filepath.Join(t.TempDir(), "absent.json"),
		"not json":           writeRaw(t, "{"),
		"no entries":         writeDoc(t, Document{}),
		"zero ns_per_iter":   writeDoc(t, Document{Entries: []Entry{entry("eagle"), zero}}),
		"infinite hpwl_mm":   writeRaw(t, `{"entries":[{"topology":"grid","ns_per_iter":1000,"hpwl_mm":1e999}]}`),
		"non-numeric ph":     writeRaw(t, `{"entries":[{"topology":"grid","ns_per_iter":1000,"ph_percent":"NaN"}]}`),
		"negative ns/iter":   writeRaw(t, `{"entries":[{"topology":"grid","ns_per_iter":-5}]}`),
		"fractional ns/iter": writeRaw(t, `{"entries":[{"topology":"grid","ns_per_iter":0.5}]}`),
	} {
		if err := checkDocument(path); err == nil {
			t.Errorf("%s: passed -check", name)
		}
	}
}

// TestCheckAcceptsCheckedInDocuments: every checked-in document passes
// -check, the schema-1 ones from before the worker axis was dropped with
// their extra columns ignored, and the schema-2 BENCH_26.json.
func TestCheckAcceptsCheckedInDocuments(t *testing.T) {
	for _, name := range []string{"BENCH_5.json", "BENCH_9.json", "BENCH_19.json", "BENCH_26.json"} {
		if err := checkDocument(filepath.Join("..", "..", name)); err != nil {
			t.Error(err)
		}
	}
}
