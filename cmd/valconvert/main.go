// Command valconvert converts sorted value files between the block
// encoding every dataset reads and writes (front-coded blocks,
// checksums, embedded sections) and the text interchange encoding (one
// value per line, backslash and newline escaped):
//
//	valconvert file.val                    # flip the detected encoding in place
//	valconvert -format block -dir export/  # convert a whole export directory
//	valconvert -verify -out b.val a.val    # convert to a new path, re-checked
//	valconvert -backend mem -verify a.val  # stage in memory, write nothing
//
// Text exports from before block became the only encoding must be
// converted with -format block before indfind or indserved read them.
// On text→block, a <file>.sketch sidecar, which such exports carry,
// becomes the embedded SKCH section (and is removed when converting in
// place). block→text writes values only: every section is dropped with
// a notice.
package main

import (
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"spider/internal/blockfile"
	"spider/internal/store"
	"spider/internal/valfile"
)

// sidecarSuffix names the sketch file a text export keeps next to a
// value file.
const sidecarSuffix = ".sketch"

// encoding is a value file's encoding.
type encoding int

const (
	encText encoding = iota
	encBlock
)

func (e encoding) String() string {
	if e == encBlock {
		return "block"
	}
	return "text"
}

func parseEncoding(s string) (encoding, error) {
	switch s {
	case "text":
		return encText, nil
	case "block":
		return encBlock, nil
	default:
		return 0, fmt.Errorf("unknown format %q (want text or block)", s)
	}
}

// detect reports the encoding of the file at path from its first bytes.
// The text encoding escapes every newline inside a value, so a text
// file matches the block magic "\nSPB" only when its first value is
// empty and its second starts with "SPB"; such a file reads as block.
func detect(path string) (encoding, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var magic [4]byte
	n, err := f.ReadAt(magic[:], 0)
	if err != nil && err != io.EOF {
		return 0, err
	}
	if blockfile.HasMagic(magic[:n]) {
		return encBlock, nil
	}
	return encText, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "valconvert: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("valconvert", flag.ContinueOnError)
	formatName := fs.String("format", "", "target encoding: text|block (default: the opposite of the source)")
	outPath := fs.String("out", "", "output path (single file only; default: replace the source in place)")
	dir := fs.String("dir", "", "convert every .val file under this directory in place")
	verify := fs.Bool("verify", false, "re-read source and output and compare value streams before replacing anything")
	backendName := fs.String("backend", "fs", "staging backend: fs writes the converted file, mem stages it in memory and writes nothing (dry run)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var stageInMem bool
	switch *backendName {
	case "", "fs":
	case "mem":
		stageInMem = true
	default:
		return fmt.Errorf("unknown backend %q (want fs or mem)", *backendName)
	}

	var target encoding
	haveTarget := *formatName != ""
	if haveTarget {
		var err error
		target, err = parseEncoding(*formatName)
		if err != nil {
			return err
		}
	}

	switch {
	case *dir != "":
		if *outPath != "" {
			return fmt.Errorf("-out applies to single files, not -dir")
		}
		if fs.NArg() > 0 {
			return fmt.Errorf("use either -dir or file arguments, not both")
		}
		if !haveTarget {
			return fmt.Errorf("-dir requires an explicit -format")
		}
		return convertDir(*dir, target, *verify, stageInMem, out)
	case fs.NArg() == 0:
		return fmt.Errorf("no input files; usage: valconvert [-format text|block] [-out PATH] [-verify] [-backend fs|mem] FILE... | -dir DIR")
	case *outPath != "" && fs.NArg() > 1:
		return fmt.Errorf("-out applies to a single input file, got %d", fs.NArg())
	}

	for _, src := range fs.Args() {
		dst := *outPath
		if dst == "" {
			dst = src
		}
		tgt := target
		if !haveTarget {
			detected, err := detect(src)
			if err != nil {
				return err
			}
			tgt = encBlock
			if detected == encBlock {
				tgt = encText
			}
		}
		if err := convertFile(src, dst, tgt, *verify, stageInMem, out); err != nil {
			return fmt.Errorf("%s: %w", src, err)
		}
	}
	return nil
}

// convertDir converts every .val file under dir (recursively) to the
// target encoding in place. Files already in the target encoding are
// left untouched; one that only looks like a block file fails here, so
// -dir never reports success on a file the store cannot open.
func convertDir(dir string, target encoding, verify, stageInMem bool, out io.Writer) error {
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".val") {
			return err
		}
		have, err := detect(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if have == target {
			if target == encBlock {
				c, err := store.OpenFile(path, nil)
				if err != nil {
					return fmt.Errorf("%s: starts with the block magic but is not a readable block file: %w", path, err)
				}
				c.Close()
			}
			return nil
		}
		if err := convertFile(path, path, target, verify, stageInMem, out); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		return nil
	})
}

// openValues opens the value file at path in the given encoding.
func openValues(path string, enc encoding) (store.Cursor, error) {
	var (
		c   store.Cursor
		err error
	)
	if enc == encBlock {
		c, err = store.OpenFile(path, nil)
	} else {
		c, err = openText(path)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// convertFile streams src into a freshly written dst in the target
// encoding, carrying sketch payloads across the sidecar/section
// boundary. The output lands in a temp file first and replaces dst only
// after it is complete (and, with verify, proven value-identical to the
// source). With stageInMem the converted value set only ever exists in
// an in-memory dataset: the pipeline (including verify) runs end to
// end, then reports and discards — nothing on disk changes.
func convertFile(src, dst string, target encoding, verify, stageInMem bool, out io.Writer) error {
	source, err := detect(src)
	if err != nil {
		return err
	}
	var (
		w   store.ValueWriter
		mem *store.Mem
		tmp = dst + ".convert.tmp"
	)
	switch {
	case stageInMem:
		mem = store.NewMem()
		w, err = mem.Create(dst)
	case target == encBlock:
		w, err = store.CreateFile(tmp)
	default:
		w, err = createText(tmp)
	}
	if err != nil {
		return err
	}
	if !stageInMem {
		defer os.Remove(tmp)
	}
	// Block files and the mem backend carry any section; text drops them.
	n, err := copyValues(src, source, w, stageInMem || target == encBlock, out)
	if err != nil {
		w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}

	if verify {
		var rb store.Cursor
		if stageInMem {
			rb, err = mem.Open(dst, nil)
		} else {
			rb, err = openValues(tmp, target)
		}
		if err != nil {
			return err
		}
		err = compareWith(src, source, rb)
		rb.Close()
		if err != nil {
			return fmt.Errorf("verify: %w", err)
		}
	}
	if stageInMem {
		fmt.Fprintf(out, "%s: %s → %s (%d values, staged in memory, not written)\n", dst, source, target, n)
		return nil
	}
	if err := os.Rename(tmp, dst); err != nil {
		return err
	}
	// In-place text→block: the sidecar's payload now lives inside the
	// block file, so the sidecar goes.
	if src == dst && source == encText && target == encBlock {
		os.Remove(src + sidecarSuffix)
	}
	fmt.Fprintf(out, "%s: %s → %s (%d values)\n", dst, source, target, n)
	return nil
}

// copyValues streams every value of src into w, then its sections: with
// keepSections a text source's sketch sidecar and a block source's
// embedded sections go to w; without, every embedded section is dropped
// with a notice.
func copyValues(src string, source encoding, w store.ValueWriter, keepSections bool, out io.Writer) (int, error) {
	r, err := openValues(src, source)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	for {
		v, ok := r.Next()
		if !ok {
			break
		}
		if err := w.Append(v); err != nil {
			return 0, err
		}
	}
	if err := r.Err(); err != nil {
		return 0, err
	}

	if source == encText {
		if !keepSections {
			return w.Len(), nil
		}
		data, err := os.ReadFile(src + sidecarSuffix)
		if os.IsNotExist(err) {
			return w.Len(), nil
		}
		if err != nil {
			return 0, err
		}
		return w.Len(), w.SetSection(valfile.SketchSection, data)
	}
	fc := r.(*store.FileCursor)
	for _, tag := range fc.Sections() {
		if !keepSections {
			fmt.Fprintf(out, "%s: dropping %s section (no text representation)\n", src, tag)
			continue
		}
		data, _, err := fc.Section(tag)
		if err != nil {
			return 0, err
		}
		if err := w.SetSection(tag, data); err != nil {
			return 0, err
		}
	}
	return w.Len(), nil
}

// compareWith re-reads src and fails on the first value where it and
// rb diverge, or on a value one of them lacks.
func compareWith(src string, source encoding, rb store.Cursor) error {
	ra, err := openValues(src, source)
	if err != nil {
		return err
	}
	defer ra.Close()
	for i := 0; ; i++ {
		va, oka := ra.Next()
		vb, okb := rb.Next()
		if oka != okb {
			return fmt.Errorf("value count mismatch at index %d", i)
		}
		if !oka {
			break
		}
		if va != vb {
			return fmt.Errorf("value %d differs: %q vs %q", i, va, vb)
		}
	}
	if err := ra.Err(); err != nil {
		return err
	}
	return rb.Err()
}
