//go:build race

package tree

const raceEnabled = true
