//go:build race

package session

func init() { raceEnabled = true }
