package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"
)

// centralizedDigestGolden is the SHA-256 of TrainCentralized's W0, every W
// and the objective on the cohort below. It is an absolute pin: the other
// bit-identity tests compare two runs of today's kernels with each other
// (workers, observer, shards), so none of them notices a kernel that
// reorders a floating-point sum. A deliberate numeric change must update
// this value and say why.
const centralizedDigestGolden = "77afce5645d8dd2edc9b6fcdf8ba0ed2d0f6177e4ac7127dcba243a344a368ef"

func TestCentralizedModelDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go may fuse s += a*b into an FMA on other architectures, which
		// changes the last bits of every dot product.
		t.Skipf("golden digest is pinned on amd64, not %s", runtime.GOARCH)
	}
	users := fig5Users(t, 11, 6, 8, 40)
	model, info, err := TrainCentralized(users, Config{Lambda: 50, Seed: 11,
		MaxCCCPIter: 4, MaxCutIter: 20, QPMaxIter: 800, Workers: 1})
	if err != nil {
		t.Fatalf("TrainCentralized: %v", err)
	}
	h := sha256.New()
	put := func(v []float64) {
		var b [8]byte
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	put(model.W0)
	for _, w := range model.W {
		put(w)
	}
	put([]float64{info.Objective})
	if got := hex.EncodeToString(h.Sum(nil)); got != centralizedDigestGolden {
		t.Fatalf("model digest %s, want %s (objective %v, %d QP iterations)",
			got, centralizedDigestGolden, info.Objective, info.QPIterations)
	}
}
