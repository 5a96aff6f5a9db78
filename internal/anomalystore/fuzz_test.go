package anomalystore

import (
	"bytes"
	"os"
	"testing"
)

// segmentBytes builds a real sealed segment in memory to seed the fuzzer
// with structurally valid input — mutations of true segments exercise far
// deeper decode paths than random bytes.
func segmentBytes(t testing.TB, n int, seal bool) []byte {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := s.Append(testIncident(i)); err != nil {
			t.Fatal(err)
		}
	}
	if seal {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatal("no segment written")
	}
	raw, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// FuzzSegmentReader feeds arbitrary bytes through the full read path:
// ScanSegment plus DecodeIncident on every CRC-clean payload. The contract
// under fuzz is "corrupt input never panics and never over-allocates" —
// errors and Truncated flags are the expected outcomes, crashes are bugs.
func FuzzSegmentReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	f.Add(segmentBytes(f, 3, true))
	f.Add(segmentBytes(f, 5, false))
	// A deliberately torn tail and a bit-flipped body as starting points.
	whole := segmentBytes(f, 4, true)
	f.Add(whole[:len(whole)-9])
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		scan, err := ScanSegment(bytes.NewReader(data), func(seq uint64, payload []byte) error {
			// A CRC-clean payload may still be garbage to DecodeIncident
			// (the fuzzer can forge a matching CRC); it must error, not
			// panic.
			_, _ = DecodeIncident(payload)
			return nil
		})
		if err == nil && scan.Records < 0 {
			t.Fatal("negative record count")
		}
		// DecodeIncident over the raw input too — the payload decoder must
		// hold on its own against arbitrary bytes.
		_, _ = DecodeIncident(data)
	})
}
