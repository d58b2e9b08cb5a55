//go:build race

package main

// raceBuild: see race_off_test.go.
const raceBuild = true
