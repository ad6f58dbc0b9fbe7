// Package cursortest exercises the cursorclose analyzer: closeable
// module types must be released on every path or escape to an owner.
package cursortest

import (
	"spider/internal/blockfile"
	"spider/internal/extsort"
	"spider/internal/store"
)

// leakOnErrorPath is the seeded bug class: the defer Close that should
// follow the first open was removed, so the second open's error return
// leaks the first reader.
func leakOnErrorPath(a, b string) error {
	ra, err := store.OpenFile(a, nil)
	if err != nil {
		return err // ra is nil on its own failure check: clean
	}
	rb, err := store.OpenFile(b, nil)
	if err != nil {
		return err // want `ra may not be closed on this return path`
	}
	defer ra.Close()
	defer rb.Close()
	return nil
}

// closedProperly is the same shape with the defers where they belong.
func closedProperly(a, b string) error {
	ra, err := store.OpenFile(a, nil)
	if err != nil {
		return err
	}
	defer ra.Close()
	rb, err := store.OpenFile(b, nil)
	if err != nil {
		return err
	}
	defer rb.Close()
	return nil
}

// neverClosed acquires a cursor through the blessed pass-through,
// uses it, and forgets it entirely.
func neverClosed(path string) (string, error) {
	r, err := store.OpenFile(path, nil) // want `r is never closed in this function and never escapes to an owner`
	if err != nil {
		return "", err
	}
	v, _ := r.Next()
	return v, nil
}

// blankDiscard can never close what it throws away.
func blankDiscard(path string) {
	_, err := store.OpenFile(path, nil) // want `result discarded with _`
	_ = err
}

// escapesToCaller hands ownership out through the return value.
func escapesToCaller(path string) (*store.FileCursor, error) {
	r, err := store.OpenFile(path, nil)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// handedToOwner transfers ownership to a callee.
func handedToOwner(path string, own func(*store.FileCursor)) error {
	r, err := store.OpenFile(path, nil)
	if err != nil {
		return err
	}
	own(r)
	return nil
}

// deferredInClosure releases through a deferred function literal.
func deferredInClosure(path string) error {
	r, err := store.OpenFile(path, nil)
	if err != nil {
		return err
	}
	defer func() { r.Close() }()
	if r.Err() != nil {
		return r.Err()
	}
	return nil
}

// sorterDiscard releases a Discard-style closeable.
func sorterDiscard(vals []string) error {
	s := extsort.New()
	defer s.Discard()
	for _, v := range vals {
		if err := s.Add(v); err != nil {
			return err
		}
	}
	return nil
}

// sorterLeak forgets the sorter: nothing ever discards its buffer.
func sorterLeak(vals []string) error {
	s := extsort.New() // want `s is never closed in this function`
	for _, v := range vals {
		if err := s.Add(v); err != nil {
			return err
		}
	}
	return nil
}

// blockReaderLeak forgets a block-file reader: the fd-holding handle
// never reaches Close.
func blockReaderLeak(path string) (int64, error) {
	r, err := blockfile.Open(path) // want `r is never closed in this function`
	if err != nil {
		return 0, err
	}
	return r.Count(), nil
}

// blockWriterLeakOnError is the unclosed-on-error-path class on the
// block writer: the reader open's error return leaks the writer.
func blockWriterLeakOnError(src, dst string) error {
	w, err := blockfile.Create(dst, blockfile.Options{})
	if err != nil {
		return err // w is nil on its own failure check: clean
	}
	r, err := blockfile.Open(src)
	if err != nil {
		return err // want `w may not be closed on this return path`
	}
	defer w.Close()
	defer r.Close()
	return nil
}

// blockRoundtripClosed releases both block-file handles properly.
func blockRoundtripClosed(src, dst string) error {
	w, err := blockfile.Create(dst, blockfile.Options{})
	if err != nil {
		return err
	}
	defer w.Close()
	r, err := blockfile.Open(src)
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		v, ok := r.Next()
		if !ok {
			break
		}
		if err := w.Append(v); err != nil {
			return err
		}
	}
	return r.Err()
}

// datasetLeakOnErrorPath is the same seeded bug class through the
// storage seam: the first dataset cursor leaks when the second open
// fails.
func datasetLeakOnErrorPath(ds store.Dataset, a, b string) error {
	ca, err := ds.Open(a, nil)
	if err != nil {
		return err // ca is nil on its own failure check: clean
	}
	cb, err := ds.Open(b, nil)
	if err != nil {
		return err // want `ca may not be closed on this return path`
	}
	defer ca.Close()
	defer cb.Close()
	return nil
}

// datasetClosedProperly defers each dataset cursor's Close right after
// acquisition.
func datasetClosedProperly(ds store.Dataset, a, b string) error {
	ca, err := ds.Open(a, nil)
	if err != nil {
		return err
	}
	defer ca.Close()
	cb, err := ds.Open(b, nil)
	if err != nil {
		return err
	}
	defer cb.Close()
	return nil
}

// datasetWriterNeverClosed stages a value set and forgets the writer:
// the staged key never commits.
func datasetWriterNeverClosed(key string) error {
	mem := store.NewMem()
	w, err := mem.Create(key) // want `w is never closed in this function and never escapes to an owner`
	if err != nil {
		return err
	}
	return w.Append("v")
}

// datasetWriterHandoff returns the staged writer: the caller owns it.
func datasetWriterHandoff(key string) (store.ValueWriter, error) {
	mem := store.NewMem()
	return mem.Create(key)
}
