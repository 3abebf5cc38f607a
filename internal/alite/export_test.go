package alite

// Hooks for the external tests, which may import package corpus (it
// imports alite, so a test inside the package cannot).
var (
	Keyword  = keyword  // the lexer's keyword switch
	Keywords = keywords // the table it replaced, kept as its oracle
)
