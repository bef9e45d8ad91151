//go:build !race

package tree

// raceEnabled reports whether the race detector is active. The
// steady-state allocation tests skip under -race: the race-mode
// sync.Pool deliberately drops a fraction of Puts, so arena borrows
// legitimately re-allocate there.
const raceEnabled = false
