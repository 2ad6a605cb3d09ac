package hgio_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"

	"hgmatch/internal/hgio"
)

// FuzzAppendEmbeddingRecord pins the /match row encoder to encoding/json:
// for any row, AppendEmbeddingRecord must write exactly the bytes of
// json.Marshal(EmbeddingRecord{m}) plus the '\n' json.Encoder adds, and
// must leave whatever dst already held untouched. The row decodes from
// raw as little-endian uint32s (a ragged tail is dropped); isNil selects
// the nil row, which encodes as null rather than []. Seeds live in
// testdata/fuzz/FuzzAppendEmbeddingRecord.
func FuzzAppendEmbeddingRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, prefix, raw []byte, isNil bool) {
		var m []uint32
		if !isNil {
			m = make([]uint32, 0, len(raw)/4)
			for i := 0; i+4 <= len(raw); i += 4 {
				m = append(m, binary.LittleEndian.Uint32(raw[i:]))
			}
		}
		want, err := json.Marshal(hgio.EmbeddingRecord{Embedding: m})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')

		dst := append([]byte(nil), prefix...)
		got := hgio.AppendEmbeddingRecord(dst, m)
		if !bytes.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("prefix clobbered: %q, want %q", got[:len(prefix)], prefix)
		}
		if line := got[len(prefix):]; !bytes.Equal(line, want) {
			t.Fatalf("row %v: got %q, want %q", m, line, want)
		}
	})
}
