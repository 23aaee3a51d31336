//go:build race

package spatialjoin_test

// raceDetector reports whether the test binary was built with -race.
const raceDetector = true
