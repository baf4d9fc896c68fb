package sentiment

import (
	"math"
	"strings"
	"unicode"
)

// Analyzer is a rule-based VADER-style sentiment scorer. The zero value is
// ready to use.
type Analyzer struct {
	// NegationFactor is the multiplier applied to a sentiment word preceded
	// by a negation (VADER uses −0.74). Zero selects the default.
	NegationFactor float64
	// Alpha is the normalization constant of the compound score (VADER
	// uses 15). Zero selects the default.
	Alpha float64
}

const (
	defaultNegationFactor = -0.74
	defaultAlpha          = 15.0
	capsBoost             = 0.733
	exclamationBoost      = 0.292
	maxExclamations       = 3
	negationLookback      = 3
)

func (a *Analyzer) negFactor() float64 {
	if a.NegationFactor != 0 {
		return a.NegationFactor
	}
	return defaultNegationFactor
}

func (a *Analyzer) alpha() float64 {
	if a.Alpha != 0 {
		return a.Alpha
	}
	return defaultAlpha
}

func (a *Analyzer) compoundOf(tokens []Token, exclamations int) float64 {
	sum := 0.0
	for i, tok := range tokens {
		v, ok := valence[tok.Lower]
		if !ok {
			continue
		}
		// Booster words in the three preceding positions scale intensity,
		// with decay by distance, per VADER.
		for back := 1; back <= 3 && i-back >= 0; back++ {
			b, isBooster := boosters[tokens[i-back].Lower]
			if !isBooster {
				continue
			}
			scale := b
			switch back {
			case 2:
				scale *= 0.95
			case 3:
				scale *= 0.9
			}
			if v > 0 {
				v += scale
			} else {
				v -= scale
			}
		}
		// Negation within the lookback window flips and dampens.
		for back := 1; back <= negationLookback && i-back >= 0; back++ {
			if negations[tokens[i-back].Lower] {
				v *= a.negFactor()
				break
			}
		}
		// ALL-CAPS emphasis.
		if tok.AllCaps {
			if v > 0 {
				v += capsBoost
			} else {
				v -= capsBoost
			}
		}
		sum += v
	}
	// Exclamation marks amplify the total, capped as in VADER.
	if exclamations > maxExclamations {
		exclamations = maxExclamations
	}
	if sum > 0 {
		sum += float64(exclamations) * exclamationBoost
	} else if sum < 0 {
		sum -= float64(exclamations) * exclamationBoost
	}
	return sum / math.Sqrt(sum*sum+a.alpha())
}

// Token is one word of the input with case information preserved for the
// ALL-CAPS rule.
type Token struct {
	Lower   string
	AllCaps bool
}

// Tokenize splits text into word tokens, lowercased, with punctuation
// stripped except intra-word apostrophes (so "didn't" survives).
func Tokenize(text string) []Token {
	var tokens []Token
	var cur strings.Builder
	letters, uppers := 0, 0
	flush := func() {
		if cur.Len() == 0 {
			return
		}
		w := cur.String()
		tokens = append(tokens, Token{
			Lower:   strings.ToLower(w),
			AllCaps: letters >= 2 && uppers == letters,
		})
		cur.Reset()
		letters, uppers = 0, 0
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			cur.WriteRune(r)
			if unicode.IsLetter(r) {
				letters++
				if unicode.IsUpper(r) {
					uppers++
				}
			}
		case r == '\'' && cur.Len() > 0:
			cur.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return tokens
}

func countExclamations(text string) int {
	n := 0
	for _, r := range text {
		if r == '!' {
			n++
		}
	}
	return n
}

// CompoundToScale maps a compound sentiment in [-1,1] onto the integer
// rating scale {1..m} by uniform binning; it is the final step of the
// extraction pipeline (the paper "computed the average sentiment ... for
// each rating dimension" and rates on the dataset's scale).
func CompoundToScale(compound float64, m int) int {
	if m < 2 {
		return 1
	}
	x := (compound + 1) / 2 // → [0,1]
	s := int(x*float64(m)) + 1
	if s > m {
		s = m
	}
	if s < 1 {
		s = 1
	}
	return s
}
