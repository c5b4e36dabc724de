package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"trail/internal/graph"
)

// FuzzAttributeBody drives /v1/attribute through Server.Handler with
// arbitrary request bodies. The contract: no panic, the status is one
// the endpoint documents, every non-200 reply carries the
// {"error":{"code","message"}} shape, and every 200 reply is a
// well-formed answer for the snapshot's epoch.
func FuzzAttributeBody(f *testing.F) {
	fx := fixture(f)
	const maxBody = 256
	srv, err := New(Config{MaxBody: maxBody}, fx.loader())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	h := srv.Handler()
	snap := srv.Snapshot()

	for _, kind := range []graph.NodeKind{graph.KindEvent, graph.KindIP, graph.KindURL, graph.KindDomain, graph.KindASN} {
		for _, key := range snap.SampleKeys(kind, 1) {
			body, _ := json.Marshal(map[string]any{"kind": KindName(kind), "key": key, "top_k": 3})
			f.Add(false, body)
		}
	}
	for _, body := range []string{
		``,
		`{`,
		`null`,
		`[]`,
		`"event"`,
		`{"kind":"event"}`,
		`{"kind":"event","key":""}`,
		`{"kind":"event","key":"no-such-event"}`,
		`{"kind":"event","key":"x","nope":1}`,
		`{"kind":"proto","key":"x"}`,
		`{"kind":7,"key":"x"}`,
		`{"kind":"event","key":"x","top_k":-4}`,
		`{"kind":"event","key":"x","top_k":1e99}`,
		`{"kind":"event","key":"x"} trailing`,
		`{"kind":"event","key":"` + strings.Repeat("x", 2*maxBody) + `"}`,
		"\xff\xfe\x00",
	} {
		f.Add(false, []byte(body))
	}
	f.Add(true, []byte(`{"kind":"event","key":"x"}`))

	f.Fuzz(func(t *testing.T, get bool, body []byte) {
		method := http.MethodPost
		if get {
			method = http.MethodGet
		}
		req := httptest.NewRequest(method, "/v1/attribute", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
			var ar attributeResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil {
				t.Fatalf("200 with undecodable body %q: %v", rec.Body.Bytes(), err)
			}
			if ar.Epoch != snap.Epoch || len(ar.Predictions) == 0 {
				t.Fatalf("200 with answer %+v (snapshot epoch %d)", ar, snap.Epoch)
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusMethodNotAllowed, http.StatusRequestEntityTooLarge:
			var er errorResponse
			dec := json.NewDecoder(rec.Body)
			dec.DisallowUnknownFields()
			if err := dec.Decode(&er); err != nil || er.Error.Code == "" || er.Error.Message == "" {
				t.Fatalf("status %d with malformed error body %q (%v)", rec.Code, rec.Body.Bytes(), err)
			}
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.Bytes())
		}
	})
}
