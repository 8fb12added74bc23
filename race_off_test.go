//go:build !race

package feww

const raceDetectorEnabled = false
