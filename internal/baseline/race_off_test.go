//go:build !race

package baseline

// raceEnabled reports whether the race detector is active. The
// steady-state allocation bound skips under -race: the race-mode
// sync.Pool deliberately drops a fraction of Puts (to shake out
// use-after-Put bugs), so arena borrows legitimately re-allocate there.
const raceEnabled = false
