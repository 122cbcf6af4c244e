//go:build race

package lp

func init() { raceEnabled = true }
