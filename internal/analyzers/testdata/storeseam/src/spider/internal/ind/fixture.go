// Package ind exercises storeseam outside the allowed packages: every
// gated valfile entry point must be flagged, format plumbing must not.
package ind

import "spider/internal/valfile"

func openDirect(path string) error {
	r, err := valfile.Open(path, nil) // want `direct valfile\.Open call outside internal/store`
	if err != nil {
		return err
	}
	return r.Close()
}

func createDirect(path string, format valfile.Format) error {
	if _, err := valfile.Create(path); err != nil { // want `direct valfile\.Create call outside internal/store`
		return err
	}
	w, err := valfile.CreateFormat(path, format) // want `direct valfile\.CreateFormat call outside internal/store`
	if err != nil {
		return err
	}
	return w.Close()
}

func bulkDirect(path string, vals []string, format valfile.Format) error {
	if _, err := valfile.WriteAll(path, vals); err != nil { // want `direct valfile\.WriteAll call outside internal/store`
		return err
	}
	if _, err := valfile.WriteAllFormat(path, vals, format); err != nil { // want `direct valfile\.WriteAllFormat call outside internal/store`
		return err
	}
	if _, err := valfile.ReadAll(path); err != nil { // want `direct valfile\.ReadAll call outside internal/store; .* store\.OpenFile pass-through`
		return err
	}
	_, _, err := valfile.ReadSection(path, "SKCH") // want `direct valfile\.ReadSection call outside internal/store`
	return err
}

// formatPlumbing inspects encodings without opening a stream: allowed.
func formatPlumbing(path, name string) error {
	if _, err := valfile.ParseFormat(name); err != nil {
		return err
	}
	_, err := valfile.DetectFormat(path)
	return err
}

// suppressed documents a justified escape hatch.
func suppressed(path string) error {
	//lint:indlint-ignore storeseam fixture proves the directive works
	r, err := valfile.Open(path, nil)
	if err != nil {
		return err
	}
	return r.Close()
}
