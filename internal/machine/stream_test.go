package machine

import (
	"bytes"
	"encoding/json"
	"testing"

	"itsim/internal/policy"
	"itsim/internal/trace"
)

// TestStreamEquivalence: a run fed by the streaming ITRC decoder must be
// byte-identical (full serialized metrics) to the same run fed by the
// in-memory SliceGenerator — the tentpole invariant that streaming
// ingestion changes where records come from, never what they are.
func TestStreamEquivalence(t *testing.T) {
	gens := []trace.Generator{seqGen("a", 4000, 64), seqGen("b", 4000, 192)}

	// Serialize both traces, then rebuild one spec set in memory and one
	// streaming from the serialized bytes.
	blobs := make([][]byte, len(gens))
	for i, g := range gens {
		var buf bytes.Buffer
		if err := trace.WriteAll(&buf, g); err != nil {
			t.Fatal(err)
		}
		blobs[i] = buf.Bytes()
	}

	for _, kind := range policy.Kinds() {
		runOnce := func(stream bool) []byte {
			specs := make([]ProcessSpec, len(gens))
			for i := range gens {
				var g trace.Generator
				var err error
				if stream {
					g, err = trace.NewStreamGenerator(bytes.NewReader(blobs[i]))
				} else {
					g, err = trace.ReadAll(bytes.NewReader(blobs[i]))
				}
				if err != nil {
					t.Fatal(err)
				}
				specs[i] = ProcessSpec{Name: g.Name(), Gen: g, Priority: i + 1}
			}
			m := newMachine(t, testConfig(), policy.New(kind), "stream-eq", specs)
			run, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			out, err := json.Marshal(run)
			if err != nil {
				t.Fatal(err)
			}
			for i := range specs {
				if sg, ok := specs[i].Gen.(*trace.StreamGenerator); ok {
					if err := sg.Err(); err != nil {
						t.Fatalf("stream error for %s: %v", specs[i].Name, err)
					}
				}
			}
			return out
		}
		inMem := runOnce(false)
		streamed := runOnce(true)
		if !bytes.Equal(inMem, streamed) {
			t.Errorf("%v: streamed run diverged from in-memory run:\n in-mem: %s\n stream: %s",
				kind, inMem, streamed)
		}
	}
}
