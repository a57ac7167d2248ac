//go:build race

package waitgraph

func init() { raceEnabled = true }
