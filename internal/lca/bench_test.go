package lca

import (
	"math/rand"
	"testing"
)

func BenchmarkBuild64k(b *testing.B) {
	tr := randomTree(1<<16, 1)
	for i := 0; i < b.N; i++ {
		New(tr, nil, nil)
	}
}

func BenchmarkQuery(b *testing.B) {
	tr := randomTree(1<<16, 2)
	l := New(tr, nil, nil)
	rng := rand.New(rand.NewSource(3))
	us := make([]int32, 1024)
	vs := make([]int32, 1024)
	for i := range us {
		us[i] = int32(rng.Intn(tr.N()))
		vs[i] = int32(rng.Intn(tr.N()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Query(us[i%1024], vs[i%1024])
	}
}
