package valfile

import (
	"encoding/binary"
	"fmt"
)

// RunMeta is the staging provenance embedded next to a value set under
// RunMetaSection: how many values the sorted distinct set was
// deduplicated from, and how many external-sort spill runs its final
// merge consumed. The added count recovers the per-attribute
// duplication factor without re-touching the base data. Every set is
// now sorted in memory, so staging writes SpillRuns 0; the field stays
// so that the section keeps its 16 bytes and files written when sets
// could spill still decode.
type RunMeta struct {
	Added     int64
	SpillRuns int
}

const runMetaLen = 16

// Encode serializes the metadata (two little-endian u64s), the
// RunMetaSection payload dataset writers embed next to staged output.
func (m RunMeta) Encode() []byte {
	b := make([]byte, runMetaLen)
	binary.LittleEndian.PutUint64(b[0:8], uint64(m.Added))
	binary.LittleEndian.PutUint64(b[8:16], uint64(m.SpillRuns))
	return b
}

// DecodeRunMeta parses a RunMetaSection payload.
func DecodeRunMeta(b []byte) (RunMeta, error) {
	if len(b) != runMetaLen {
		return RunMeta{}, fmt.Errorf("valfile: run metadata is %d bytes, want %d", len(b), runMetaLen)
	}
	return RunMeta{
		Added:     int64(binary.LittleEndian.Uint64(b[0:8])),
		SpillRuns: int(int64(binary.LittleEndian.Uint64(b[8:16]))),
	}, nil
}
