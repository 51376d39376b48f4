//go:build race

package cgen

func init() { raceEnabled = true }
