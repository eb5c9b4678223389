//go:build race

package archive_test

func init() { raceEnabled = true }
