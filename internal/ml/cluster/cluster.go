// Package cluster provides distance-based clustering for the paper's
// customer-segmentation scenario in its unsupervised form: k-medoids (PAM)
// and average-linkage agglomerative clustering over an arbitrary distance
// function, plus the external quality metrics (purity, adjusted Rand index)
// used to score clusterings against known house labels.
//
// Symbolic day-vectors plug in through the distance measures of
// internal/symbolic; raw vectors use plain L1/L2 — one more demonstration
// that the symbolic representation "is not linked to any specific
// algorithm".
package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// DistanceFunc returns the distance between items i and j of a dataset.
type DistanceFunc func(i, j int) float64

// Matrix precomputes a symmetric distance matrix from a DistanceFunc.
func Matrix(n int, dist DistanceFunc) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := dist(i, j)
			m[i][j] = d
			m[j][i] = d
		}
	}
	return m
}

// Result is a clustering: Assign[i] is the cluster index of item i.
type Result struct {
	Assign []int
	K      int
}

// KMedoids runs the PAM-style k-medoids algorithm: greedy medoid
// initialisation (k-means++-like, seeded), then alternating assignment and
// medoid refinement until stable.
func KMedoids(n, k int, dist DistanceFunc, seed int64) (Result, error) {
	if k < 1 || k > n {
		return Result{}, fmt.Errorf("cluster: k=%d outside [1,%d]", k, n)
	}
	m := Matrix(n, dist)
	rng := rand.New(rand.NewSource(seed))

	// Initialisation: first medoid random, then greedily farthest-first.
	medoids := []int{rng.Intn(n)}
	for len(medoids) < k {
		best, bestD := -1, -1.0
		for i := 0; i < n; i++ {
			d := math.Inf(1)
			for _, md := range medoids {
				if m[i][md] < d {
					d = m[i][md]
				}
			}
			if d > bestD {
				bestD = d
				best = i
			}
		}
		medoids = append(medoids, best)
	}

	assign := make([]int, n)
	for iter := 0; iter < 100; iter++ {
		// Assignment step.
		changed := false
		for i := 0; i < n; i++ {
			best := 0
			for c := 1; c < k; c++ {
				if m[i][medoids[c]] < m[i][medoids[best]] {
					best = c
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Medoid update: the member minimising total distance to its
		// cluster.
		for c := 0; c < k; c++ {
			bestCost := math.Inf(1)
			bestIdx := medoids[c]
			for i := 0; i < n; i++ {
				if assign[i] != c {
					continue
				}
				var cost float64
				for j := 0; j < n; j++ {
					if assign[j] == c {
						cost += m[i][j]
					}
				}
				if cost < bestCost {
					bestCost = cost
					bestIdx = i
				}
			}
			medoids[c] = bestIdx
		}
		if !changed && iter > 0 {
			break
		}
	}
	return Result{Assign: assign, K: k}, nil
}

// Agglomerative runs average-linkage hierarchical clustering, cutting the
// dendrogram at k clusters.
func Agglomerative(n, k int, dist DistanceFunc) (Result, error) {
	if k < 1 || k > n {
		return Result{}, fmt.Errorf("cluster: k=%d outside [1,%d]", k, n)
	}
	m := Matrix(n, dist)
	// clusters holds member lists; nil slots are merged away.
	clusters := make([][]int, n)
	for i := range clusters {
		clusters[i] = []int{i}
	}
	active := n
	// linkage computes average pairwise distance between two clusters.
	linkage := func(a, b []int) float64 {
		var sum float64
		for _, i := range a {
			for _, j := range b {
				sum += m[i][j]
			}
		}
		return sum / float64(len(a)*len(b))
	}
	for active > k {
		bi, bj := -1, -1
		best := math.Inf(1)
		for i := 0; i < n; i++ {
			if clusters[i] == nil {
				continue
			}
			for j := i + 1; j < n; j++ {
				if clusters[j] == nil {
					continue
				}
				if d := linkage(clusters[i], clusters[j]); d < best {
					best = d
					bi, bj = i, j
				}
			}
		}
		clusters[bi] = append(clusters[bi], clusters[bj]...)
		clusters[bj] = nil
		active--
	}
	assign := make([]int, n)
	c := 0
	for _, members := range clusters {
		if members == nil {
			continue
		}
		for _, i := range members {
			assign[i] = c
		}
		c++
	}
	return Result{Assign: assign, K: k}, nil
}

// Purity scores a clustering against ground-truth labels: the fraction of
// items belonging to their cluster's majority label.
func Purity(assign, labels []int) (float64, error) {
	if len(assign) != len(labels) || len(assign) == 0 {
		return 0, errors.New("cluster: need equal, non-zero assignments and labels")
	}
	counts := map[[2]int]int{}
	clusterTotals := map[int]int{}
	for i := range assign {
		counts[[2]int{assign[i], labels[i]}]++
		clusterTotals[assign[i]]++
	}
	majority := map[int]int{}
	for key, c := range counts {
		if c > majority[key[0]] {
			majority[key[0]] = c
		}
	}
	var correct int
	for _, c := range majority {
		correct += c
	}
	return float64(correct) / float64(len(assign)), nil
}

// AdjustedRandIndex scores a clustering against labels, corrected for
// chance: 1 for perfect agreement, ~0 for random assignments.
func AdjustedRandIndex(assign, labels []int) (float64, error) {
	if len(assign) != len(labels) || len(assign) == 0 {
		return 0, errors.New("cluster: need equal, non-zero assignments and labels")
	}
	n := len(assign)
	cont := map[[2]int]int{}
	rowSums := map[int]int{}
	colSums := map[int]int{}
	for i := 0; i < n; i++ {
		cont[[2]int{assign[i], labels[i]}]++
		rowSums[assign[i]]++
		colSums[labels[i]]++
	}
	choose2 := func(x int) float64 { return float64(x) * float64(x-1) / 2 }
	var sumIJ, sumA, sumB float64
	for _, c := range cont {
		sumIJ += choose2(c)
	}
	for _, c := range rowSums {
		sumA += choose2(c)
	}
	for _, c := range colSums {
		sumB += choose2(c)
	}
	total := choose2(n)
	expected := sumA * sumB / total
	maxIdx := (sumA + sumB) / 2
	if maxIdx == expected {
		return 0, nil
	}
	return (sumIJ - expected) / (maxIdx - expected), nil
}
