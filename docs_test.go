package p2pgrid

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// docPath matches what the docs name as a repository path: anything
// under scripts/, cmd/, examples/, internal/ or testdata/, and the
// checked-in BENCH_*.json files.
var docPath = regexp.MustCompile(`\b(?:(?:scripts|cmd|examples|internal|testdata)/[A-Za-z0-9_./-]*|BENCH_[A-Za-z0-9_]+\.json)`)

// goIdent is a package-qualified Go identifier at the end of a path,
// as in internal/faultinject.ByzPlan.
var goIdent = regexp.MustCompile(`\.[A-Z][A-Za-z0-9_]*$`)

// TestDocsNameExistingPaths holds README.md, DESIGN.md and
// EXPERIMENTS.md to the tree: every script, command, example, package,
// test-data file and BENCH_*.json they name exists, so deleting a file
// without its mentions fails here.
func TestDocsNameExistingPaths(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, p := range docPath.FindAllString(line, -1) {
				p = goIdent.ReplaceAllString(strings.TrimRight(p, "./"), "")
				if _, err := os.Stat(p); err != nil {
					t.Errorf("%s:%d names %s, which does not exist", doc, i+1, p)
				}
			}
		}
	}
}
