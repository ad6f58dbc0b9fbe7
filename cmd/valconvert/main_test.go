package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"spider/internal/store"
	"spider/internal/valfile"
)

func writeText(t *testing.T, path string, values []string) {
	t.Helper()
	w, err := createText(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range values {
		if err := w.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeBlock writes a block file holding values and the given sections.
func writeBlock(t *testing.T, path string, values []string, sections map[string][]byte) {
	t.Helper()
	w, err := store.CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range values {
		if err := w.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	for tag, data := range sections {
		if err := w.SetSection(tag, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// readAll reads every value of path in its detected encoding.
func readAll(t *testing.T, path string) []string {
	t.Helper()
	enc, err := detect(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := openValues(path, enc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var vals []string
	for {
		v, ok := r.Next()
		if !ok {
			break
		}
		vals = append(vals, v)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return vals
}

func mustFormat(t *testing.T, path string, want encoding) {
	t.Helper()
	got, err := detect(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("detect(%s) = %v, want %v", path, got, want)
	}
}

func TestRoundtripInPlace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.val")
	values := []string{"", "a", "abc\nwith\nnewlines", "abd", "b\x00nul", `back\slash`}
	writeText(t, path, values)

	var out strings.Builder
	// text → block (default flips the detected format).
	if err := run([]string{"-verify", path}, &out); err != nil {
		t.Fatal(err)
	}
	mustFormat(t, path, encBlock)
	if got := readAll(t, path); !equal(got, values) {
		t.Fatalf("after text→block: %q", got)
	}
	// block → text.
	if err := run([]string{"-verify", path}, &out); err != nil {
		t.Fatal(err)
	}
	mustFormat(t, path, encText)
	if got := readAll(t, path); !equal(got, values) {
		t.Fatalf("after block→text: %q", got)
	}
}

func TestOutPath(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.val")
	dst := filepath.Join(dir, "dst.val")
	values := []string{"x", "y", "z"}
	writeText(t, src, values)

	var out strings.Builder
	if err := run([]string{"-format", "block", "-out", dst, "-verify", src}, &out); err != nil {
		t.Fatal(err)
	}
	mustFormat(t, src, encText) // source untouched
	mustFormat(t, dst, encBlock)
	if got := readAll(t, dst); !equal(got, values) {
		t.Fatalf("dst = %q", got)
	}
}

// TestSketchSidecarMigration converts a text export with a sketch
// sidecar: the sidecar's bytes become the embedded SKCH section, and
// the sidecar goes.
func TestSketchSidecarMigration(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.val")
	writeText(t, path, []string{"a", "b"})
	payload := []byte("sketch-payload")
	if err := os.WriteFile(path+sidecarSuffix, payload, 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := run([]string{"-format", "block", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, ok, err := store.FileSection(path, valfile.SketchSection)
	if err != nil || !ok || !bytes.Equal(data, payload) {
		t.Fatalf("embedded sketch = %q ok=%v err=%v", data, ok, err)
	}
	if _, err := os.Stat(path + sidecarSuffix); !os.IsNotExist(err) {
		t.Fatalf("sidecar should be removed after in-place embed, stat err = %v", err)
	}
}

// TestBlockToTextDropsSections converts a block file carrying a sketch
// and run metadata to text: the text file holds the values only, every
// section is reported as dropped, and no sidecar is written.
func TestBlockToTextDropsSections(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.val")
	values := []string{"a", "b\nc"}
	writeBlock(t, path, values, map[string][]byte{
		valfile.SketchSection:  []byte("sketch-payload"),
		valfile.RunMetaSection: valfile.RunMeta{Added: 7}.Encode(),
	})

	var out strings.Builder
	if err := run([]string{"-format", "text", "-verify", path}, &out); err != nil {
		t.Fatal(err)
	}
	mustFormat(t, path, encText)
	if got := readAll(t, path); !equal(got, values) {
		t.Fatalf("text values = %q, want %q", got, values)
	}
	for _, tag := range []string{valfile.SketchSection, valfile.RunMetaSection} {
		if !strings.Contains(out.String(), "dropping "+tag+" section") {
			t.Errorf("no notice for the dropped %s section in %q", tag, out.String())
		}
	}
	if _, err := os.Stat(path + sidecarSuffix); !os.IsNotExist(err) {
		t.Fatalf("block→text wrote a sidecar, stat err = %v", err)
	}
}

func TestDirMode(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for _, name := range []string{"a.val", "b.val", filepath.Join("sub", "c.val")} {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		writeText(t, p, []string{"v1", "v2"})
		paths = append(paths, p)
	}
	// One file already in the target format must be left alone.
	pre := filepath.Join(dir, "pre.val")
	writeBlock(t, pre, []string{"w"}, nil)
	other := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(other, []byte("not a value file"), 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := run([]string{"-format", "block", "-verify", "-dir", dir}, &out); err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		mustFormat(t, p, encBlock)
	}
	mustFormat(t, pre, encBlock)
	if data, err := os.ReadFile(other); err != nil || string(data) != "not a value file" {
		t.Fatalf("non-.val file touched: %q err=%v", data, err)
	}
	if strings.Contains(out.String(), "pre.val") {
		t.Fatalf("already-converted file reported: %s", out.String())
	}

	// A text export whose first value is empty and whose second starts
	// with "SPB" begins with the block magic. -dir must fail on it, not
	// skip it as already converted.
	lookalike := filepath.Join(t.TempDir(), "x.val")
	writeText(t, lookalike, []string{"", "SPBx"})
	err := run([]string{"-format", "block", "-dir", filepath.Dir(lookalike)}, &out)
	if err == nil || !strings.Contains(err.Error(), lookalike) {
		t.Fatalf("-dir on a text file with the block magic: err = %v, want an error naming %s", err, lookalike)
	}
}

func TestBadArgs(t *testing.T) {
	var out strings.Builder
	for _, args := range [][]string{
		{},                              // no inputs
		{"-format", "gzip", "x.val"},    // unknown format
		{"-dir", "d", "x.val"},          // dir + files
		{"-dir", "d"},                   // dir without format
		{"-out", "o", "a.val", "b.val"}, // out with multiple inputs
		{"-dir", "d", "-out", "o"},      // dir + out
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%q) succeeded, want error", args)
		}
	}
}

func TestCorruptEscapeDetected(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"dangling.val": "abc\\\n",
		"unknown.val":  "ab\\qcd\n",
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := openText(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := r.Next(); ok {
			t.Errorf("%s: corrupt escape must not yield a value", name)
		}
		if r.Err() == nil {
			t.Errorf("%s: corrupt escape must surface an error", name)
		}
		r.Close()
		var out strings.Builder
		if err := run([]string{"-format", "block", p}, &out); err == nil {
			t.Errorf("%s: converting a corrupt text file succeeded", name)
		}
	}
}

// Property: escape/unescape is the identity for every string.
func TestEscapeRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		got, err := unescape(escape(s))
		return err == nil && got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
