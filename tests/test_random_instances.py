"""Differential test of the seeded instance generators.

Every generator is hashed over seeds 0-49 for each p in {2, 3, 5, 7}: the
JSON of each instance (complexes, models, sigma triplets with their
multiplicities, barcodes and planted bars) goes into one sha256 per
(generator, p).  The digests were recorded from the generators as they
stood before they were rebuilt on one shared matching, one set of
conjugation draws and one change of basis, so a rewrite that changes a
single draw, coefficient or dictionary order for any seed fails here.
"""

import hashlib
import json
import random

import numpy as np
import pytest

from smith_tate.complexes import complex_to_json
from smith_tate.persistence import barcode_to_json
from smith_tate.random_instances import (
    adversarial_iterated_pair,
    planted_filtered_complex,
    random_barcode,
    random_chain_complex,
    random_equivariant_filtered,
    random_filtered_complex,
    random_floer_model,
    random_free_equivariant,
    random_sigma_matrix,
    random_sigma_with_multiplicities,
)
from smith_tate.spectral import model_to_json

SEEDS = range(50)
PRIMES = (2, 3, 5, 7)


def _sigma(m, mults) -> dict:
    trips = [[int(r), int(c), int(m.a[r, c])] for r, c in zip(*np.nonzero(m.a))]
    return {"size": m.rows, "matrix": trips, "multiplicities": list(mults)}


def _sigma_matrix(p, seed):
    rng = random.Random(seed)
    mults = tuple(rng.randint(0, 2) for _ in range(p))
    return _sigma(random_sigma_matrix(p, mults, rng), mults)


def _sigma_with_multiplicities(p, seed):
    return _sigma(*random_sigma_with_multiplicities(p, seed))


def _planted(p, seed):
    rng = random.Random(seed)
    finite = [(a, a + rng.randint(1, 6), rng.randint(1, 2)) for a in rng.sample(range(-5, 10), rng.randint(0, 4))]
    infinite = [rng.randint(-5, 10) for _ in range(rng.randint(0, 3))]
    fc, bars = planted_filtered_complex(p, finite, infinite, rng, degree_lo=rng.randint(-1, 1))
    return [complex_to_json(fc), barcode_to_json(bars)]


def _barcodes(p, seed):
    return [
        barcode_to_json(random_barcode(p, seed)),
        barcode_to_json(random_barcode(p, seed, normalized=True)),
        barcode_to_json(random_barcode(p, seed, distinct_infinite=True)),
        barcode_to_json(random_barcode(p, seed, allow_finite=False, distinct_infinite=True)),
    ]


def _adversarial(p, seed):
    rng = random.Random(seed)
    b1 = random_barcode(p, rng)
    if not any(bar.finite for bar in b1.bars):
        return None
    return [barcode_to_json(b) for b in adversarial_iterated_pair(b1, p, rng)]


INSTANCES = {
    "random_free_equivariant": lambda p, s: complex_to_json(random_free_equivariant(p, s)),
    "random_sigma_matrix": _sigma_matrix,
    "random_sigma_with_multiplicities": _sigma_with_multiplicities,
    "random_chain_complex": lambda p, s: complex_to_json(random_chain_complex(p, s)),
    "random_filtered_complex": lambda p, s: complex_to_json(random_filtered_complex(p, s)),
    "planted_filtered_complex": _planted,
    "random_equivariant_filtered": lambda p, s: complex_to_json(random_equivariant_filtered(p, s)),
    "random_floer_model": lambda p, s: model_to_json(random_floer_model(p, s)),
    "random_floer_model_undeformed": lambda p, s: model_to_json(random_floer_model(p, s, deform=False)),
    "random_barcode": _barcodes,
    "adversarial_iterated_pair": _adversarial,
}


def _digest(name: str, p: int) -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        h.update(json.dumps(INSTANCES[name](p, seed)).encode())
        h.update(b"\n")
    return h.hexdigest()


RECORDED = {
    "adversarial_iterated_pair": {
        2: "1b18f7b777c35e5b0253a0c1eb99db2832b063288ae1fc29ec737b561364f9a6",
        3: "045c7989d4e8277ef1c7738068f6939b070c337b39105efe4d0a368a573fc5cf",
        5: "aff251f509b81ec3060ec756738ed05ab021d9d176ef833229893038c16062b4",
        7: "4095a21c59bae0c27f166db7ee992fca7f9452b6f65bc7efc6220c49bc8f8d5a",
    },
    "planted_filtered_complex": {
        2: "a7e071b794d02b9fc2a4d43ed51d11e540e61c77e45f7008994ca7869b0a74ce",
        3: "6344153feabe208c5c4d36b248f507b18af0b20ff974eec833a9a2d93cf41e41",
        5: "dbd2fe640f6918806c7e733c1d1be01f3a9fb11201bd1f16705f2e731c874637",
        7: "8db8dfb1d99071e9cf0b34cbc5b47853c97e9e4b1600be7d5f04c0e9a22dcabe",
    },
    "random_barcode": {
        2: "6ecdf3539c3237ee0964d69d16434fa4dadcb631be41bf89bac4a52049d98623",
        3: "ea180c1021ae934a71f3029e704df1bcdf441e5c956c0b58aa6e08f0ec6423c0",
        5: "b3cb1fbea02ce46023093e2bc9299e5afe0b0bd90744c4f2d59a542b557b79e3",
        7: "0892558dafa654e4d2e404ee3e1f10c06f81a839685c41a39e93f9236076dd03",
    },
    "random_chain_complex": {
        2: "11f7ecded1f3af1447a050e049ee0e82a66c3749f11ac3ef7b85f05a62ec0173",
        3: "f1c68c9f176aa8e03ab778edabc9496df4f7e078ca0748f6c2b2618913043d49",
        5: "60d0dd86aabe0a95fb68513c8835e730b240dce124b9a832fb6a1a1cc11fabc7",
        7: "264385732dad967fe049ddb806e09551595eceb1e15bb1768e50a2383c55b674",
    },
    "random_equivariant_filtered": {
        2: "a2c9eea5d41b93aaa7865ff82601653aad83839112e7d5135470a58b77e1feaa",
        3: "b75e8ea99d313fd99cf00f34a90f11f2fe8b80251404755cd57865b5a540f97b",
        5: "6d011751e332eff7db728fa66e0e0a6daa09680cbfd478538a1a44410623d21f",
        7: "bde8ae158652143cf35e483fb144953c1a59b331d97bdcb5cc9d564fea588204",
    },
    "random_filtered_complex": {
        2: "a660d3bf1a2caddaccfd39b9897d92e5893dfd724295e0e43675488027978538",
        3: "09fdd3d0ab9ebb43323535e9f7432dd1ef5b3068ef273365aaa0992885f56c25",
        5: "6d29fd535cc91280d79d1d86f35f2fe50909b47ed1541f2206dd954a0b146049",
        7: "2f16e33dfa7f5a644b9e49af77a7ea4dddadd67f2260c93a786b6561d45e0dc9",
    },
    "random_floer_model": {
        2: "7d7e5b704c761303fcf49b0297534145c16310ce00e818b65f27bda47e9534d1",
        3: "16006584d3e3f13f6059de5f14df4f036634e19af2ca56e11f3a55a6f9c8fe90",
        5: "ecd120b092b02cec74f8bb2c3de5d5062d8bc3e811c4a33621d1b19348220311",
        7: "1aeaf2f8d5930dfa7d7a30fda7441af270180000ca40d84668461b3bc22f6d52",
    },
    "random_floer_model_undeformed": {
        2: "e83c635fc6ca8f39f3c5c70f651880d1a364f7cd8b14310c675a8ad20a1c9c3d",
        3: "e8f821c0495b0b2046801ac4492e4f8d75c90cbca254298851e941a0b3d92e55",
        5: "8b9f1ff2d262033d5f4d27f05f734a5603ab7828533b58e9261a830e5c3f1cf9",
        7: "94ee33b5b42df3c75b8c5c7d900025922e069210e065d7c3d661caf5b8b6e77c",
    },
    "random_free_equivariant": {
        2: "41f4d40d6e7d50bca6f899ca1fd45abcd6b9bf06b16403b2c2bde3ca9858b4e2",
        3: "d192b002a02ee70604b8e28b694a5de650f457c65ad07f961acc35d000adec87",
        5: "c38d777260bc68409dad9e03fcb90a5884e453521da5aa1480e13db46a14c335",
        7: "a2914f2db70f5e78cb09c051b0becde6078dc3084d059da8a795499e1d998673",
    },
    "random_sigma_matrix": {
        2: "7043381558712a1bdcb233acdc1f9c4d90af985a46ce031155c114221c8797d4",
        3: "cc37f6349db4c687b1730f7b9a0a1c4323f9e2ac9b11824edb3937bdde9d76bd",
        5: "16033692a39c3ecb7c418e4a1e40081ddb8fcd04d23ee4040a545df6e0028b3c",
        7: "4a548c45e148b17d8cd932faca36fd8f1b860d6d87c0607e567b47d0fd5c6d68",
    },
    "random_sigma_with_multiplicities": {
        2: "17fec9e97985357dc661bed0f6ef54477407fee4fd07d9377712c94c7e63fa17",
        3: "035febbec14bcbe6f2ad051ca9b25b240fd649ee60bc9e31f009a69be9b12a60",
        5: "dc05b160dacee3d7db9aa5214fb1c239bbcee6d12ecfc98e74972562c8828b89",
        7: "71a459081c921b438859aa11d55f9ace3fa62491c00f0d930574a9ff059d67e9",
    },
}


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_generator_output_matches_recorded_digest(name, p):
    assert _digest(name, p) == RECORDED[name][p]
