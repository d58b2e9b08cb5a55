// Command untested is a program no test runs: the gate reports it.
package main

func main() {}
