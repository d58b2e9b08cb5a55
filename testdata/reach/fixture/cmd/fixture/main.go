package main

import "fixture/lib"

func main() { lib.Run(lib.Config{Set: 1}) }
