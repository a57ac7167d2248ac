package main

import "fixture/lib"

func main() { println(lib.ForMain()) }
