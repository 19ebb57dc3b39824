package model

// DecodeState exposes the decoder behind ReadState, without validation,
// to the differential tests in package model_test.
var DecodeState = decodeState
