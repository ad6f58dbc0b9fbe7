package valfile

import (
	"bytes"
	"testing"
)

// TestRunMetaBytes pins the RunMetaSection payload: two little-endian
// u64s, Added then SpillRuns. Staging writes SpillRuns 0; payloads with
// spill runs, which files written by the external sorter may carry,
// still decode, and any other length is refused.
func TestRunMetaBytes(t *testing.T) {
	golden := []byte{0x39, 0x30, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	if got := (RunMeta{Added: 12345}).Encode(); !bytes.Equal(got, golden) {
		t.Errorf("Encode = % x, want % x", got, golden)
	}
	spilled := []byte{0x10, 0x27, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0}
	if meta, err := DecodeRunMeta(spilled); err != nil || meta != (RunMeta{Added: 10000, SpillRuns: 3}) {
		t.Errorf("DecodeRunMeta = %+v, %v; want {10000 3}", meta, err)
	}
	for _, n := range []int{0, 15, 17} {
		if _, err := DecodeRunMeta(make([]byte, n)); err == nil {
			t.Errorf("DecodeRunMeta accepted %d bytes", n)
		}
	}
}
