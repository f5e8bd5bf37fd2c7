// Package testdigest freezes the results of equivalence harnesses
// whose reference implementations were retired. Each harness cell's
// result is hashed to a short digest and compared with the digest in
// testdata/<test>.digests ("label digest" lines), recorded while the
// reference still ran and equalled the compiled path. Only tests
// import it.
//
// Digests are compared on amd64 only: other architectures may fuse
// multiply-adds and round differently. Regenerate a test's file only
// for a deliberate change of the results it pins, on amd64 and without
// -short, with the package before the flag:
//
//	go test ./internal/<pkg> -run '<test>' -update
package testdigest

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.digests from the results the tests compute")

// Sum is the first 8 bytes, in hex, of the SHA-256 of buf.
func Sum(buf []byte) string {
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// Set holds one test's frozen digests and the cells the test has
// checked so far.
type Set struct {
	path      string
	want, got map[string]string
}

// Load reads the digest file of the top-level test t. Without -short
// it also fails the test, at its end, for every digest whose cell the
// test no longer visits; with -update it writes the checked cells'
// digests in place of the file instead. A -run pattern that selects
// subtests visits only some cells, so it skips the unvisited check and
// refuses -update.
func Load(t *testing.T) *Set {
	t.Helper()
	d := &Set{
		path: filepath.Join("testdata", t.Name()+".digests"),
		want: map[string]string{},
		got:  map[string]string{},
	}
	partial := false
	if run := flag.Lookup("test.run"); run != nil {
		partial = strings.Contains(run.Value.String(), "/")
	}
	if *update {
		if testing.Short() || partial || runtime.GOARCH != "amd64" {
			t.Fatal("-update needs the full tier (no -short), whole tests and amd64")
		}
		t.Cleanup(func() {
			var b strings.Builder
			for _, label := range slices.Sorted(maps.Keys(d.got)) {
				b.WriteString(label + " " + d.got[label] + "\n")
			}
			if err := os.WriteFile(d.path, []byte(b.String()), 0o644); err != nil {
				t.Error(err)
			}
		})
		return d
	}
	data, err := os.ReadFile(d.path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		label, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", d.path, line)
		}
		d.want[label] = sum
	}
	t.Cleanup(func() {
		if testing.Short() || partial || t.Failed() {
			return
		}
		for _, label := range slices.Sorted(maps.Keys(d.want)) {
			if _, ok := d.got[label]; !ok {
				t.Errorf("%s: %s holds a digest of a cell the test does not visit", label, d.path)
			}
		}
	})
	return d
}

// Check records sum under label and, on amd64 without -update,
// requires it to equal the frozen digest. t may be a subtest of the
// test that loaded the set.
func (d *Set) Check(t *testing.T, label, sum string) {
	t.Helper()
	if _, dup := d.got[label]; dup {
		t.Fatalf("%s: label checked twice", label)
	}
	d.got[label] = sum
	if *update || runtime.GOARCH != "amd64" {
		return
	}
	want, ok := d.want[label]
	if !ok {
		t.Fatalf("%s: no digest in %s (regenerate with -update)", label, d.path)
	}
	if sum != want {
		t.Fatalf("%s: result digest %s, frozen reference %s", label, sum, want)
	}
}
