package advisor

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReadReport feeds arbitrary bytes to the report parser, seeded
// from the committed report goldens. Rejection is fine; a panic is
// not, and every accepted report must survive a Write/ReadReport round
// trip unchanged and write the same bytes twice.
func FuzzReadReport(f *testing.F) {
	for _, dir := range []string{"seed_reports", "ntier_reports", "exact_reports"} {
		paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", dir, "*.report"))
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	// The shapes the goldens lack: a partitioned entry and a degraded
	// marker.
	f.Add([]byte("HMEM_ADVISOR\tapp\nstrategy\tdensity\nbudget\t8192\nlb\t4096\nub\t4096\n" +
		"object\tMCDRAM\tfalse\t7\t4096\tid\tsite\t1024\t2048\n"))
	f.Add([]byte("HMEM_ADVISOR\tapp\nstrategy\texact\ndegraded\tnode-limit\tdensity\t100\t0.97\nbudget\t4096\nlb\t0\nub\t0\n"))

	f.Fuzz(func(t *testing.T, in []byte) {
		r, err := ReadReport(bytes.NewReader(in))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := r.Write(&first); err != nil {
			t.Fatal(err)
		}
		back, err := ReadReport(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-read of written report failed: %v\n%s", err, first.String())
		}
		if !reflect.DeepEqual(back, r) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, r)
		}
		var second bytes.Buffer
		if err := back.Write(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("second write differs:\n%s\n---\n%s", first.String(), second.String())
		}
	})
}
