//go:build race

package sweep

func init() { raceDetector = true }
