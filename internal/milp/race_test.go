//go:build race

package milp

func init() { raceEnabled = true }
