//go:build race

package link

// raceEnabled reports a -race build, under which sync.Pool drops a
// random share of the items put into it.
const raceEnabled = true
