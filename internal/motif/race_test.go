//go:build race

package motif

func init() { raceEnabled = true }
