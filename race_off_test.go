//go:build !race

package webracer

// raceEnabled reports a -race build, under which sync.Pool drops items
// at random and allocation counts are not comparable.
const raceEnabled = false
