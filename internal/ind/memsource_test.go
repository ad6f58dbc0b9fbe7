package ind

import (
	"fmt"

	"spider/internal/store"
)

// memSource loads ID-keyed in-memory value sets into a store.Mem under
// each attribute's dataset key, so the fixture serves any engine as its
// Store. Attributes that were never exported get a plain key assigned.
func memSource(attrs []*Attribute, sets map[int][]string) *store.Mem {
	mem := store.NewMem()
	for _, a := range attrs {
		mem.SetValues(fixtureKey(a), sets[a.ID])
	}
	return mem
}

// fixtureKey returns the attribute's dataset key, assigning a plain
// ID-derived one when the attribute was never exported.
func fixtureKey(a *Attribute) string {
	if a.StoreKey() == "" {
		a.Key = fmt.Sprintf("a%05d.val", a.ID)
	}
	return a.StoreKey()
}
