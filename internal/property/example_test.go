package property_test

import (
	"fmt"
	"time"

	"placeless/internal/property"
)

// Example shows an active property's read-path interception: the
// translator returns a transform that rewrites the content flowing to
// the application, voting and costing through the ReadContext.
func Example() {
	translator := property.NewTranslator(3 * time.Millisecond)

	rc := &property.ReadContext{Doc: "paper", User: "marie", Sleep: func(time.Duration) {}}
	transform := translator.WrapInput(rc)

	out := transform([]byte("the active document system"))
	res := rc.Result()

	fmt.Printf("content: %s\n", out)
	fmt.Printf("replacement cost: %v, cacheability: %v\n", res.Cost, res.Cacheability)
	// Output:
	// content: le actif document système
	// replacement cost: 3ms, cacheability: unrestricted
}

// ExampleVerifier shows the portfolio-page policy: a Threshold
// verifier tolerates insignificant changes in an external source.
func ExampleVerifier() {
	quote := property.NewExternalVar("XRX", 55.00)
	v := property.Threshold{
		VerifierName: "XRX",
		Source:       quote.Value,
		Reference:    55.00,
		Tolerance:    1.00,
	}

	quote.Set(55.40)
	ok, _ := v.Check(time.Time{})
	fmt.Println("after +0.40:", ok)

	quote.Set(58.75)
	ok, _ = v.Check(time.Time{})
	fmt.Println("after +3.75:", ok)
	// Output:
	// after +0.40: true
	// after +3.75: false
}
