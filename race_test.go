//go:build race

package rentmin_test

func init() { raceEnabled = true }
