package main

import (
	"os"

	"fixture/lib"
)

func main() { lib.Run(lib.Config{Set: len(os.Args)}) }
