//go:build !race

package spatialjoin_test

const raceDetector = false
