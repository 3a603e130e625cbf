package symbolic_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"symmeter/internal/dataset"
	"symmeter/internal/symbolic"
)

// learnedTableGolden is the SHA-256 of the MarshalTable bytes of every
// learner at every pinned alphabet size, concatenated over the houses of
// goldenHouses. Learning must stay bit-identical: a selection kernel, a bin
// lookup or a summation order that moves one separator or one representative
// mean by an ulp changes these hashes.
var learnedTableGolden = map[string]string{
	"uniform/2":          "85553a32cab4588a51f39b3b168590a912230397147c381ba610e5fbe96073da",
	"uniform/4":          "a67e859256889999a840f389bc825b3786eeb03ae5dba9b2d64a66ca53663d1f",
	"uniform/16":         "f855ab498724d31db33cdf5f66c37db1b0381b18dd62afd9987278e6c17a10ec",
	"uniform/256":        "36a59d57691ae202bdbb2f46ea4f7663154537eb3a541431e9181a7811bdffd8",
	"median/2":           "2806fb8eb0da56e31d73be011f9c91224b5e336247229f38a5c23bf29dbe587c",
	"median/4":           "96deb3720d11ac2be7eabf6b386cd53a67e7b9b37fff0652cb0a37aebe9b2fd6",
	"median/16":          "87d82f09a40f96b98999a8ed4cf785a5e0b493f6ee066e1d1e68cb934f0a6208",
	"median/256":         "09de1060dc64d0f106ced11a4f63372c2f02b412df0b136192dfc77b1e8f3fe4",
	"distinctmedian/2":   "5669d87784463e22e4eb9692aaf65b84dcce16e0640f15ff33ae73dafdce51e3",
	"distinctmedian/4":   "25a7d6562f2d2be77e61d2fc9155296e88cadf995c82293e14ac04742f386e3f",
	"distinctmedian/16":  "1d96a5fe2e3027d4275da7e8730ff5bbce35d74fff96dbddc9c2a958372aa3fa",
	"distinctmedian/256": "a29abb138bd5be72fe8fb576b9ba5ec344ab35a197183d9fd9fbb21bd7165212",
	"lloydmax/2":         "a31596e8aa0b72af0fdc478dc4e0bad6c98b5cf156bd77a1da55d47c438a7ca5",
	"lloydmax/4":         "0c6c45171a2ce73d6fd0dea28a24fc223e25463c8c7392713437e68a605872e2",
	"lloydmax/16":        "5bddfa73da7087ae44716810948ac29be56aa62901c7f21e66ab40e128e8869e",
	"lloydmax/256":       "94cc4ec14c55dd743f95ca6c3ef45f6b869fe2d44c2ed030ff72fdb3df255d0a",
}

// goldenHouses returns the training values of three generated houses: two
// days at 1 Hz each, gaps included, as the paper's sensors learn them.
func goldenHouses() [][]float64 {
	gen := dataset.New(dataset.Config{Houses: 3, Days: 2, Seed: 7})
	out := make([][]float64, gen.Houses())
	for h := range out {
		for _, p := range gen.House(h, 0, 2).Points {
			out[h] = append(out[h], p.V)
		}
	}
	return out
}

func TestLearnedTableGolden(t *testing.T) {
	houses := goldenHouses()
	for _, m := range []symbolic.Method{symbolic.MethodUniform, symbolic.MethodMedian, symbolic.MethodDistinctMedian, symbolic.MethodLloydMax} {
		for _, k := range []int{2, 4, 16, 256} {
			key := fmt.Sprintf("%s/%d", m, k)
			h := sha256.New()
			for i, vals := range houses {
				tab, err := symbolic.Learn(m, vals, k)
				if err != nil {
					t.Fatalf("%s house %d: %v", key, i, err)
				}
				h.Write(symbolic.MarshalTable(tab))
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != learnedTableGolden[key] {
				t.Errorf("%s: table hash %s, want %s", key, got, learnedTableGolden[key])
			}
		}
	}
}
