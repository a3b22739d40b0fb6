package persist

import (
	"errors"
	"os"

	"snoopy/internal/crypt"
)

// routeContext is the AAD context for the sealed routing key record.
const routeContext = "snoopy-persist/route-key/v2"

// LoadOrCreateRoutingKey returns the deployment's oblivious routing key —
// the keyed-hash secret that assigns objects to subORAM partitions (§4.1).
// It is sealed at DataDir/route.key under the deployment sealing key: a
// reopened deployment must route each key to the partition that persisted
// it, and the host must not learn the assignment function.
func LoadOrCreateRoutingKey(dataDir string) (crypt.Key, error) {
	var key crypt.Key
	d, err := openDir(nil, dataDir, nil, nil, nil)
	if err != nil {
		return key, err
	}
	pt, err := d.openSealedFile(routeKeyFile, routeContext, nil, crypt.KeySize)
	switch {
	case err == nil:
		copy(key[:], pt)
	case errors.Is(err, os.ErrNotExist):
		if key, err = crypt.NewKey(); err == nil {
			err = d.sealFile(routeKeyFile, routeContext, nil, key[:])
		}
	}
	return key, err
}
