// Package ind exercises storeseam outside the allowed packages: every
// gated blockfile entry point must be flagged, format plumbing must not.
package ind

import "spider/internal/blockfile"

func openDirect(path string) error {
	r, err := blockfile.Open(path) // want `direct blockfile\.Open call outside internal/store; .* store\.OpenFile or FileSection pass-through`
	if err != nil {
		return err
	}
	return r.Close()
}

func createDirect(path string) error {
	w, err := blockfile.Create(path, blockfile.Options{}) // want `direct blockfile\.Create call outside internal/store; .* store\.CreateFile pass-through`
	if err != nil {
		return err
	}
	return w.Close()
}

// formatPlumbing inspects bytes without opening a stream: allowed.
func formatPlumbing(head []byte) bool {
	return blockfile.HasMagic(head)
}

// suppressed documents a justified escape hatch.
func suppressed(path string) error {
	//lint:indlint-ignore storeseam fixture proves the directive works
	r, err := blockfile.Open(path)
	if err != nil {
		return err
	}
	return r.Close()
}
