//go:build race

package andersen

func init() { raceEnabled = true }
