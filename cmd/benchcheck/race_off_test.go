//go:build !race

package main

// raceBuild reports a -race build. The detector slows the engines roughly
// an order of magnitude, which turns the full recomputation into minutes.
const raceBuild = false
