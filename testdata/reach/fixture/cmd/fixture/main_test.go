package main

import "testing"

func TestMainRuns(t *testing.T) { main() }
