package cluster

import (
	"math"
	"math/rand"
	"testing"
)

// blobs builds n points in `k` well-separated 1-D blobs and returns the
// values plus true labels.
func blobs(n, k int, seed int64) ([]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % k
		vals[i] = float64(c)*100 + rng.NormFloat64()*3
		labels[i] = c
	}
	return vals, labels
}

func l1Dist(vals []float64) DistanceFunc {
	return func(i, j int) float64 { return math.Abs(vals[i] - vals[j]) }
}

func TestKMedoidsSeparatesBlobs(t *testing.T) {
	vals, labels := blobs(60, 3, 1)
	res, err := KMedoids(60, 3, l1Dist(vals), 7)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Purity(res.Assign, labels)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.99 {
		t.Fatalf("purity = %v on separated blobs", p)
	}
	ari, err := AdjustedRandIndex(res.Assign, labels)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.95 {
		t.Fatalf("ARI = %v on separated blobs", ari)
	}
}

func TestAgglomerativeSeparatesBlobs(t *testing.T) {
	vals, labels := blobs(45, 3, 2)
	res, err := Agglomerative(45, 3, l1Dist(vals))
	if err != nil {
		t.Fatal(err)
	}
	p, _ := Purity(res.Assign, labels)
	if p < 0.99 {
		t.Fatalf("purity = %v", p)
	}
	if res.K != 3 {
		t.Fatalf("K = %d", res.K)
	}
	sizes := make([]int, res.K)
	for _, c := range res.Assign {
		sizes[c]++
	}
	for _, s := range sizes {
		if s != 15 {
			t.Fatalf("sizes = %v, want 15 each", sizes)
		}
	}
}

func TestKMedoidsValidation(t *testing.T) {
	vals, _ := blobs(10, 2, 3)
	if _, err := KMedoids(10, 0, l1Dist(vals), 1); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := KMedoids(10, 11, l1Dist(vals), 1); err == nil {
		t.Fatal("k>n should error")
	}
	res, err := KMedoids(10, 10, l1Dist(vals), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Singleton clusters are a valid degenerate case.
	if res.K != 10 {
		t.Fatalf("K = %d", res.K)
	}
}

func TestAgglomerativeValidation(t *testing.T) {
	vals, _ := blobs(8, 2, 4)
	if _, err := Agglomerative(8, 0, l1Dist(vals)); err == nil {
		t.Fatal("k=0 should error")
	}
	res, err := Agglomerative(8, 1, l1Dist(vals))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Assign {
		if a != 0 {
			t.Fatal("k=1 puts everything in one cluster")
		}
	}
}

func TestKMedoidsDeterministicSeed(t *testing.T) {
	vals, _ := blobs(40, 2, 5)
	a, _ := KMedoids(40, 2, l1Dist(vals), 9)
	b, _ := KMedoids(40, 2, l1Dist(vals), 9)
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed must reproduce")
		}
	}
}

func TestPurityKnownValues(t *testing.T) {
	// Clusters {0,0,1,1}, labels {0,1,1,1}: cluster 0 majority 1 of 2,
	// cluster 1 majority 2 of 2 → purity 3/4.
	p, err := Purity([]int{0, 0, 1, 1}, []int{0, 1, 1, 1})
	if err != nil || p != 0.75 {
		t.Fatalf("Purity = %v, %v", p, err)
	}
	if _, err := Purity(nil, nil); err == nil {
		t.Fatal("empty should error")
	}
	if _, err := Purity([]int{0}, []int{0, 1}); err == nil {
		t.Fatal("mismatch should error")
	}
}

func TestARIProperties(t *testing.T) {
	labels := []int{0, 0, 0, 1, 1, 1, 2, 2, 2}
	// Perfect agreement (relabeled): ARI = 1.
	perfect := []int{2, 2, 2, 0, 0, 0, 1, 1, 1}
	ari, err := AdjustedRandIndex(perfect, labels)
	if err != nil || math.Abs(ari-1) > 1e-12 {
		t.Fatalf("perfect ARI = %v, %v", ari, err)
	}
	// Everything in one cluster: ARI = 0.
	ones := make([]int, 9)
	ari, _ = AdjustedRandIndex(ones, labels)
	if math.Abs(ari) > 1e-12 {
		t.Fatalf("degenerate ARI = %v", ari)
	}
	// Random assignments: ARI near 0 on average.
	rng := rand.New(rand.NewSource(11))
	var sum float64
	const trials = 200
	for i := 0; i < trials; i++ {
		randAssign := make([]int, 9)
		for j := range randAssign {
			randAssign[j] = rng.Intn(3)
		}
		a, _ := AdjustedRandIndex(randAssign, labels)
		sum += a
	}
	if mean := sum / trials; math.Abs(mean) > 0.1 {
		t.Fatalf("random ARI mean = %v, want ~0", mean)
	}
	if _, err := AdjustedRandIndex(nil, nil); err == nil {
		t.Fatal("empty should error")
	}
}

func TestMatrixSymmetric(t *testing.T) {
	vals, _ := blobs(10, 2, 13)
	m := Matrix(10, l1Dist(vals))
	for i := range m {
		if m[i][i] != 0 {
			t.Fatal("diagonal must be 0")
		}
		for j := range m {
			if m[i][j] != m[j][i] {
				t.Fatal("matrix must be symmetric")
			}
		}
	}
}
