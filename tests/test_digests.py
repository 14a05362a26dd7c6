"""Pinned digests of outputs that faster algorithms must leave unchanged.

Each `report_digest` covers the printed generators and orders, so a change
to how groups are closed or how their generating sets are chosen that
alters any output byte shows up here.  The digests were recorded with the
breadth-first closure that preceded the coset closure in `perm`.

The enumeration digests cover the representative tables of every class,
in output order.  They were recorded with the enumeration that built every
labeled table and the full S_n product table, before labelings were
ordered by element invariants.

The `envelope --abelianization` digests were recorded while the Smith
normal form transforms were certified by Bareiss determinants.  The digests
of the transforms themselves say where they were recorded; they reduce the
integer condition and quotient matrices that `compute_h2` once reduced,
which `integer_h2` still builds.

The `h2` digests and `H2_MULTI_FACTOR_DIGEST` cover the cocycle
representatives as well as the invariant factors.  They were re-recorded,
once, when `compute_h2` moved from two integer Smith normal forms to one
elimination of the conditions per modulus, whose representatives follow a
rule stated on the module (the reduced echelon basis of the cocycles that
vanish on the pivot cells of the coboundaries, for prime moduli) instead of
the order of an integer elimination.  Every invariant factor stayed as
`H2_FACTORS` and `H2_MULTI_FACTORS` had recorded it before the move, and
the 11 pins with no factor kept their bytes.

The `AUT_SEARCH_DIGESTS` (`Conj(S4)`, Alexander quandles of Z5 and Z7, and
the suites that compute automorphism groups) were recorded while `aut`
enumerated every automorphism by backtracking and re-closed them greedily,
before it searched for generators along a base.  The Alexander quandles read
their automorphism `x -> u x` from a file named in the command.
"""

import hashlib
import json
import random

import pytest

from quandlekit import cli, cocycle
from quandlekit.fingroup import automorphism_group, conj_quandle, make_group
from quandlekit.quandle import build, enumerate_quandles
from integer_h2 import condition_matrix, quotient_matrix, smith_form_of
from test_envgroup import dense_d, dense_transforms

DIGESTS = {
    "aut --trivial 3": "172dfe817a0a3a111cb12e5f8c20d758aea12432412c5936d1c9ba709a7d05e8",
    "aut --trivial 4": "af984e3ad77e70e3da74a16ea344d356634009db77c0c7ab746bde84dde46f46",
    "aut --trivial 5": "8844cb02bc39118947aa4e11d8703d9ebe7b7362182c60aaac850ffa18db29e2",
    "aut --trivial 6": "eaf9855b921449290ac80b1b63f3031c85514c307c2f1df86bcf7423c9145af3",
    "aut --trivial 7": "60f5c4633dadab8833f08ef417949dfa13b32edb8406ddbfec9fa86c5ee0d9f5",
    "aut --dihedral 3": "56741ab60037b1fad2592a14dab9f68039d6efc3326a0196ed8cedabd0640e8d",
    "aut --dihedral 4": "208280ff719cae4671013083bfb7258ebac95d8ac9dfe9d403760a09996c1c01",
    "aut --dihedral 5": "0980b91ed3c9743169f9e433758cae147ab5bad304ffff2087576a482eb9e41f",
    "aut --dihedral 6": "a9c67364b138630ce7f9f71585a304b9f730cc749a4ad3ef411a1c73aba1b668",
    "aut --dihedral 7": "cedba49d9e1488c2855072e608c953d265c231d64a697b38170dfd3a046c1675",
    "aut --dihedral 8": "3dcae507100dc5d9a7bdd6a62b2cfcf8af5cfb3254b8b5974da2394c37a66952",
    "aut --conj S3": "9c91cf1dbad0b7ec320f0140646ad78725dae852828d1361ab164f748bd6c48c",
    "aut --conj D4": "cd42059505e1d41c4119d22c41ffddac35d9d0bc833e69635cfba826ae1d8ee5",
    "aut --conj Q8": "410ee05131be89f951cc2f9882b817c8da6f73e775614359a02a340b8e3e546e",
    "aut --core D4": "ea4b81e312ebe0e212303e58e39dae4bfdf5aad6713df26adefb43955b19f197",
    "aut --core Q8": "5165b710c91ca6223eb912fe345717f75a754694e14ef88d860eca7fed7ca9cb",
    "inn --trivial 3": "085fa8ceeacc3e89b015901f533ad27953d09dd9530b6d6ae7830627862866c1",
    "inn --trivial 4": "c9518bdd8d307e84ec15b11661b816c6bf80a76767d90f79a1590310a03bb3b5",
    "inn --trivial 5": "d4b03707d13a5ec1e3da63bc56e2498391c7f70d6d99576bebaa205c49451fb9",
    "inn --trivial 6": "fb13efd494bb9c11f989feb55f89fd4dfd14d4eb7c3bf1fbb77838def23dd196",
    "inn --trivial 7": "82578b86704dc031e19353c5843d48d69e72a69e03591bfcd838df7d74fb5c4c",
    "inn --dihedral 3": "0eb0208201b022133882f77dcc9dc476006cb44f723e1c2a5a8dad4d651362fa",
    "inn --dihedral 4": "6b1fc7e7cfbbc98d89e5979dd3171388ab12d9a7b24ff00bcfb7216af3677c0f",
    "inn --dihedral 5": "ede2e722d1269f3a6ed9d01b868e7215e2e506e663c783aa2a206a9455a7bb10",
    "inn --dihedral 6": "078fe9d14775bc3ffae28e8f30367dad00923ff4b61a726914a513b485f298ca",
    "inn --dihedral 7": "07d524e4ab0d69d2f85dd9eca372058be5b65d5dd8e5159102516a0da54d38c1",
    "inn --dihedral 8": "ca515105c673f2af5892fc2848cdaad53da7fd3cce110a5a1a86a1448c72667f",
    "inn --conj S3": "c2acf224fb7750ba60d8e07c5f9559a17c2cc629adfb413e3d1874c99a03a09a",
    "inn --conj D4": "2bdcb74c0eca350bd42f2b53b18cb260e63f3264f67ee0514ea3d13b7ea3eb1f",
    "inn --conj Q8": "047d86bbfb9d35c643bfc497f065a0200af6f1946d008222468447b5ee7c3feb",
    "inn --core D4": "034ede8870e0c8d63770ea3ea7441cb91d670aa81ae0f55dc69dfbec9a565d49",
    "inn --core Q8": "7b59df48ce13b17ce7425e5228f80e11493bf13735d04ae8e1ba6f29844d3cbf",
    "qinn --trivial 3": "44bfbc9c0558fb03b8ce952375d64e668763d5885d9f603e66617f396d126f1c",
    "qinn --trivial 4": "4b99b40f05e0452c1d4287abe1ca954c39709e5ce29ced77c8b0ae3092bb194d",
    "qinn --trivial 5": "8e3697ca6907351eeef7387d628c4535339e0689f357656e24d6562efcb9f420",
    "qinn --trivial 6": "305fb91ea5d8f65a7c9c4abdd3bd638e6072b594b795a4a20f9297288f5362c8",
    "qinn --trivial 7": "207cfc14c5a50ab4d4dd85c44b9e8de3a28cb2d12cd933960e84e92953654b44",
    "qinn --dihedral 3": "81db4955e5013339fd6c3aa27a4ffe0a8ca8f5d43294b6522a6f823921cd5e8d",
    "qinn --dihedral 4": "650ef3144b4cd99eac06720e5c00b0d5b2bcf9a78a33b7a85d6b7acca85afefe",
    "qinn --dihedral 5": "cd5bfe854d3c63fc0e4d4b818121dfb9d6a9b8632f4ddc4bf9bf713d52603579",
    "qinn --dihedral 6": "b01299224f6a5846697fa7bce93221b9cb34442771a2efed11954d37e4b33945",
    "qinn --dihedral 7": "d162396e0dd03ced0e2e8520e76fa2ac3e9541408240a47f3e9a52977d3ec46d",
    "qinn --dihedral 8": "d1241c31bba5b31c201d197f01e2c9dcabffc1156fa7c8a79826f99bafb95269",
    "qinn --conj S3": "34418a60a51cec63a319aaf926944b0e96f3a3546b8f64f03e79286480497a89",
    "qinn --conj D4": "3544865f1a6c03012f6679b83dbfa7e28884cbb91f4200e884567e6e5c9ba980",
    "qinn --conj Q8": "e5deb50e11e4d468a3f04aea33c120379a0fd2b8ff7e1e50e5b51be41e44c5ab",
    "qinn --core D4": "1aae1c4980708fe8510f10de805708afbddfdde90137507417261d7bef1046a8",
    "qinn --core Q8": "976aef85c723b27bb29ac14e9cbc80419be823c94e68144755cb35c3d61019ea",
    "invariants --trivial 3": "5745de2a475406193ef0674c3ec16fad72e3b9f2e6e35e40fc8001b5f06e1aca",
    "invariants --trivial 4": "550c4bdaa9914515cca38877397532faa96db8e5e53be8f84a51de1ee26d5da0",
    "invariants --trivial 5": "91378887a4af3b5380382a6ca65e3cb7688663494c1c5dfa76f761b82e4aef4a",
    "invariants --trivial 6": "b743be0c3774dff491abbfb0b1c5e6717ab451e855f177ef95758f741474c3aa",
    "invariants --trivial 7": "7250417be9363b6e7d035d82f5685b6ac69bb572f4b8ab0e839630b51bd7fd1d",
    "invariants --dihedral 3": "83083ea0286065691d1f9890ea91b1e9b5e54b68ba897525b3fd509986371492",
    "invariants --dihedral 4": "a62eecde7944fe0488d012ca2e6919be33ec6c2dbdc7a8dd51b858b409473143",
    "invariants --dihedral 5": "b137b9ccbf7a24e13eda119300929d60d4fd9402ee5ff1fd92ed6bbe4c9a766c",
    "invariants --dihedral 6": "8fb355663eb04446174df90d36feff1d288caf686887ac4aabf338c2743efba9",
    "invariants --dihedral 7": "21e4679ac68baea7d57a109b39dd92da45ea7d77a32c72de16fdf34817863457",
    "invariants --dihedral 8": "b71bcfeb6a01a60c027dad295ba1e952f88dc157fb5245ebba9bd456e24eb21e",
    "invariants --conj S3": "1267d43471e178de6b53286d4eb0faae3d19409419a1089ade80f807999951c5",
    "invariants --conj D4": "14edc821811efce967dbc3e8463a1062428c4ebf95dc854b92037aae0da85b10",
    "invariants --conj Q8": "e9dd68d6e05bdb04d5cd0aee59a2bccc197cf4c28b853f0d54a36db99490e62b",
    "invariants --core D4": "8d8648646da181eddd9b3ede67465751b9118f8ea02823ca2da19ae7453df472",
    "invariants --core Q8": "614f525ecb2589b2e19fe54ec6d274855c3568936795e9396e61c947f4030f04",
    "aut --trivial 8": "2d85589494854ca803a918fd7b41520ab3ddd5600df99ca92e7c231f7b1a6194",
}

SNF_DIGESTS = {
    "h2 --trivial 3 --coeff Z2": "457203b349958bdb5b7be9e6199adb703f2c8d54b091867152924b775915c4ae",
    "h2 --trivial 3 --coeff Z3": "2bd1460401d1cae23fd6e69d4687d01831bf774e1485f5046ac7a25eecb3cd36",
    "h2 --trivial 3 --coeff Z4": "30c220253e59701d34136bf8f7be9046b0ff7395a657dcea99c7fe7d5e7a7782",
    "h2 --trivial 3 --coeff Z2xZ3": "103a1a730532688b683e7a5f611420ebadafc7a507819f9e2892ffb44260c61a",
    "h2 --trivial 4 --coeff Z2": "3bb2d7e7deadddcf5ee7df2019d065d0a38509a7ca816ed5ca9f268a69776772",
    "h2 --trivial 4 --coeff Z3": "a2a40b76d2c6abb81f7626bfb00ca5b20831818c43b0d2cdc00030229b91fd2f",
    "h2 --trivial 4 --coeff Z4": "74b3b58ee09b225b02ae8e8f9523db1bc4d086cfcf2dfe7c01fbc8c8cbc93878",
    "h2 --trivial 4 --coeff Z2xZ3": "920b6f8267140b61c7cc9e06adf4200b748cbd5a5af8d0fec10e1fb9fc048a03",
    "h2 --trivial 5 --coeff Z2": "afc6cde2ead490a65971d1e4fbe3f6bf741f28b9c177161e1267cd9b36648736",
    "h2 --trivial 5 --coeff Z3": "707971d6d97496ea7a11811aebc30cccc7ea1120ee473ead83a774d45cb375ac",
    "h2 --trivial 5 --coeff Z4": "cedffcc233f71032406aa15d5cd291f3dc24e708777bf676df38f607d2af902e",
    "h2 --trivial 5 --coeff Z2xZ3": "bee62d581745d7edd78db80f632458cf4f402c5f61aeb63031478c941534b5ae",
    "h2 --trivial 6 --coeff Z2": "8955564d3ca7e94ead1145046a41e43d4b22739fa0026e358ec33d8bc60bd0a3",
    "h2 --trivial 6 --coeff Z3": "c3564fe4d3821c09aa0e65ca32ef15af64623491e895e86eb3c153272c0ca405",
    "h2 --trivial 6 --coeff Z4": "53edbcbb9926f07eb29e7c4720abea14f482589587020a9fcd830e4180187ebd",
    "h2 --trivial 6 --coeff Z2xZ3": "85d1bc03c063177e3991433e21fb6eabcc9bbcf804b45b42ff0a37ea9930b0c4",
    "h2 --dihedral 3 --coeff Z2": "d7c337b04348cae39aac45b06f5dcf002c024bf6174e4419a9cbd01ed0319224",
    "h2 --dihedral 3 --coeff Z3": "77d5e4a188e6541734b11aea024cc32b9e71bccd18af98fa293c05b6eb9099c3",
    "h2 --dihedral 3 --coeff Z4": "6cd6209420d6f6bf86db4c5f6e82f85598189349ee27d2a05394dc83b6898609",
    "h2 --dihedral 3 --coeff Z2xZ3": "06cf99e1c08505a5c3f1b09d078d1375c5c671215ec6e823a6a08e7def152f64",
    "h2 --dihedral 4 --coeff Z2": "d850934839e38f7f9897bfa35c7a187583cddfbd052b931264dc8602a48290bc",
    "h2 --dihedral 4 --coeff Z3": "01fed97a91b90480f4833322e2f21c6970384181cd0c8efefda49306bbf596e8",
    "h2 --dihedral 4 --coeff Z4": "d0e6da6b87ad563b5c892dda03954b03148c3f193e7b3c4de42bcf846e67b0e2",
    "h2 --dihedral 4 --coeff Z2xZ3": "3b78c6e328e4228eedf2bc0f6a413c91964929b6030f1d93b0c8418aa8c70da1",
    "h2 --dihedral 5 --coeff Z2": "2658f22416ac3205442b6e3e01554e2c6741a2f73a50b83d43afc49bbf27e271",
    "h2 --dihedral 5 --coeff Z3": "904c7f259f6be8affd64f3a87aaf4661ac3d4553255938d9b2ff860654c11776",
    "h2 --dihedral 5 --coeff Z4": "31a07cb6c90b8bad69f65e816e5478c85500a4e801d681a3a65a30e4a5fd5a39",
    "h2 --dihedral 5 --coeff Z2xZ3": "dd5762c63cba1fa123dcd3640849325bb4a41196a5c81e8603a7af54c6af0839",
    "h2 --dihedral 6 --coeff Z2": "f0879c3e95f52056f1a57ac2a00f015514b6dc575528afda2ebcc9af89d35efe",
    "h2 --dihedral 6 --coeff Z3": "3e41e8b184b7fe50014e0cf543612fa458ef3fc2fed4f6fe69c1f98098e24fbd",
    "h2 --dihedral 6 --coeff Z4": "b4ab40b66ca565981c7b51858a0b7c72b5519c6b809876b014d5e21db4cc2225",
    "h2 --dihedral 6 --coeff Z2xZ3": "095d32e63e1c2efd711f5fbff3344a382a80b16b61e4f1989b6e0b62d6baf0fc",
    "h2 --dihedral 7 --coeff Z2": "ac4ae9bd5b4f718809e9094740768eafa25f5aee8d9a8311ca0059ee99e5fe41",
    "h2 --conj S3 --coeff Z2": "53c72bcb8e6120275edb61df8272095fcbaaaab9e4fb8bcbc1cc9adf6b0e17a1",
    "h2 --conj S3 --coeff Z3": "dd0a910569f74de556086b371b9fef78efb7aa8dede5db3af85ad2934ad31595",
    "h2 --core Z3 --coeff Z4": "055635e85b7cc4b6d784d01033b4318caac3a1056e6ca7189e302bd9f6be5c4b",
    "h2 --core Z2xZ2 --coeff Z2xZ3": "60c0c92992487b3a47431fd6e9b4fd04541bc528f5a0b2834ca2b5c4519c0023",
    "h2 --core Z5 --coeff Z2": "f14ca3be71109cef457d1f5e5e25f9c65268ce334d677c212b8978497add7118",
    "envelope --trivial 3 --abelianization": "c139e7868c753887d84779a2c3770ce88a862e7a94c2a275f25ae2ac23783a1c",
    "envelope --trivial 4 --abelianization": "7d73f760a627e3bb2e486ccbcd1351e5b60c60762f4faa51cfb07db2b7b07a40",
    "envelope --trivial 5 --abelianization": "a0fcc29d53fc8fd486e461756faa08ffbf32328431981fa0916ced0ac6b75103",
    "envelope --trivial 6 --abelianization": "47f0ea0616b798973515ccf4d6cb4f3749582472b66b8255529f18234d4056ee",
    "envelope --trivial 7 --abelianization": "25e1a334dcd9250d2050d8fbae4020f5c001e244af7d266658796867c96b3426",
    "envelope --trivial 8 --abelianization": "7c295f9257ff43588d57b33ac2bf857c04b486220854caebc8696d7c0f22a6ed",
    "envelope --dihedral 3 --abelianization": "15ef7425ad695f2b9bbd5fd928a2c3d962057d95492ba4bbd5329eeee08635e9",
    "envelope --dihedral 4 --abelianization": "2461141bfc37effdf163df4320f9503129d607766502949e2af549a28aeb5fad",
    "envelope --dihedral 5 --abelianization": "52869bbd72ece7533da2d2c3023c77cbba6325f948a2fd905216a1c768c906c7",
    "envelope --dihedral 6 --abelianization": "59cfb0cde9b78b0fa280f9483c15283ccd1b7a70f9680d8fa03082e1f9c532ad",
    "envelope --dihedral 7 --abelianization": "e7d5dd2584c6641e0d90cef11ea0e130330ede75bd48999657ee0e6fc623975b",
    "envelope --dihedral 8 --abelianization": "5e19dc86a44bcee9d8fd31e4bd9cca89848c76efa879544ac596a65d6017adc8",
    "envelope --conj S3 --abelianization": "3268001778a0ef221ab12abe629b2a625d93783bd8ac4b37de7d8b71dc1d84ec",
}


@pytest.mark.parametrize("command", sorted(DIGESTS) + sorted(SNF_DIGESTS))
def test_report_digest_is_pinned(command, capsys):
    assert cli.run(command.split()) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["report_digest"] == {**DIGESTS, **SNF_DIGESTS}[command]


# The invariant factors of every `h2` pin and of the multi-factor corpus,
# recorded on their own before any representative changed, so that the
# factors stay pinned while the digests of the representatives move.
H2_FACTORS = {
    "h2 --conj S3 --coeff Z2": (2,) * 6,
    "h2 --conj S3 --coeff Z3": (3,) * 7,
    "h2 --core Z2xZ2 --coeff Z2xZ3": (6,) * 12,
    "h2 --core Z3 --coeff Z4": (),
    "h2 --core Z5 --coeff Z2": (),
    "h2 --dihedral 3 --coeff Z2": (),
    "h2 --dihedral 3 --coeff Z2xZ3": (),
    "h2 --dihedral 3 --coeff Z3": (),
    "h2 --dihedral 3 --coeff Z4": (),
    "h2 --dihedral 4 --coeff Z2": (2,) * 4,
    "h2 --dihedral 4 --coeff Z2xZ3": (2,) * 2 + (6,) * 2,
    "h2 --dihedral 4 --coeff Z3": (3,) * 2,
    "h2 --dihedral 4 --coeff Z4": (2,) * 2 + (4,) * 2,
    "h2 --dihedral 5 --coeff Z2": (),
    "h2 --dihedral 5 --coeff Z2xZ3": (),
    "h2 --dihedral 5 --coeff Z3": (),
    "h2 --dihedral 5 --coeff Z4": (),
    "h2 --dihedral 6 --coeff Z2": (2,) * 2,
    "h2 --dihedral 6 --coeff Z2xZ3": (6,) * 2,
    "h2 --dihedral 6 --coeff Z3": (3,) * 2,
    "h2 --dihedral 6 --coeff Z4": (4,) * 2,
    "h2 --dihedral 7 --coeff Z2": (),
    "h2 --trivial 3 --coeff Z2": (2,) * 6,
    "h2 --trivial 3 --coeff Z2xZ3": (6,) * 6,
    "h2 --trivial 3 --coeff Z3": (3,) * 6,
    "h2 --trivial 3 --coeff Z4": (4,) * 6,
    "h2 --trivial 4 --coeff Z2": (2,) * 12,
    "h2 --trivial 4 --coeff Z2xZ3": (6,) * 12,
    "h2 --trivial 4 --coeff Z3": (3,) * 12,
    "h2 --trivial 4 --coeff Z4": (4,) * 12,
    "h2 --trivial 5 --coeff Z2": (2,) * 20,
    "h2 --trivial 5 --coeff Z2xZ3": (6,) * 20,
    "h2 --trivial 5 --coeff Z3": (3,) * 20,
    "h2 --trivial 5 --coeff Z4": (4,) * 20,
    "h2 --trivial 6 --coeff Z2": (2,) * 30,
    "h2 --trivial 6 --coeff Z2xZ3": (6,) * 30,
    "h2 --trivial 6 --coeff Z3": (3,) * 30,
    "h2 --trivial 6 --coeff Z4": (4,) * 30,
}


@pytest.mark.parametrize("command", sorted(H2_FACTORS))
def test_h2_factors_are_pinned(command, capsys):
    assert cli.run(command.split()) == 0
    report = json.loads(capsys.readouterr().out)
    assert tuple(report["results"]["invariant_factors"]) == H2_FACTORS[command]


AUT_SEARCH_DIGESTS = {
    "aut --conj S4 --cap-order 24": "246bf9cbc1d0ae061585eb49fc43b25d10740bf5914446cc27492a3162399134",
    "qinn --conj S4 --cap-order 24": "7e6951ea3fdcc6d1e7a7eb1dee15ba3c7b2652c8521ebea77e340c674972df01",
    "invariants --conj S4 --cap-order 24": "73ed140dbdc64a7e4e234d9a09d366aa51639fe85ed2a4f0b9ec644e3a0b18c6",
    "aut --alexander Z5 z5u2.json": "add20ad7ee65b59844dcd299df8c8d50f7accc16b49cebe79bac721f12cfd0d9",
    "qinn --alexander Z5 z5u2.json": "87c5b905794c230eb3aa84bb04f656d54a9b2447a87b14752fd9adf5a88bda04",
    "invariants --alexander Z5 z5u2.json": "326f41335a9182ae617bd2573c544d5c7e5f06408dfed55d794bdf7525feece4",
    "aut --alexander Z5 z5u3.json": "8bb004218443c440d22a6b0036d2da03febeecb62406547c9ce2a547393c8c8f",
    "qinn --alexander Z5 z5u3.json": "594c86079321b3bbdf3809cfd84614a7f70591e14730b5000d6627fc83b5a944",
    "invariants --alexander Z5 z5u3.json": "0208e68b5e93d93bbe9fe70ad6805a3214fa2a744457f5c98c67ffe429611669",
    "aut --alexander Z7 z7u2.json": "fb891740870514e8be66ee3bb0c35937898c22f5b985701cb96f6cfa8a760a1b",
    "qinn --alexander Z7 z7u2.json": "03b2f848b1300bb64463e2312f78d6ff939a02b62c14f3c3cb299bc4aad66df1",
    "invariants --alexander Z7 z7u2.json": "7228e8344256852c58b79db3aa570ba53c6ef5ad3cb7973a1f27b8749d84fae0",
    "aut --alexander Z7 z7u3.json": "05f0659d8632eb7d82133c4d5f65ad4877471eabdda0a1761ba9d0447a7ec1ef",
    "qinn --alexander Z7 z7u3.json": "c8e08f0b42622ff80bc27cd770b6fed8d3fd18f6511045f1c1dd63432befc179",
    "invariants --alexander Z7 z7u3.json": "0b2281b77c665faed5b0a40be181a4633d36e90cccd0888292e43ff5f3ce2f36",
    "theorem 4.3": "1d49809b5db34a960a58fd969ca266b29d4e9b4ec8697f60e60fb1968c8b530b",
    "theorem 4.4": "743d9dc356cc365920408801a1a6254de1f479cac3392377f4d70a34302e518f",
    "theorem 4.5": "1be2ec09a3695fc16a858d7b128d8e1c10b518a4a8179202ada92da3482afe23",
    "theorem 4.6": "41a926f1d926d684666df901bc419455a2e601c444b1562f282ef40986e3cd5e",
    "theorem 5.1": "a651717e770ef7caf15e7de4f81c5a380b610fe061b73ab206dacb842654de4c",
    "theorem 5.2": "58713c163895861d26677164a9615dad1db4c80d4a7d456bf95187303ad38d08",
    "theorem 5.3": "24d77a2750def3d770d4acde4d8d50be104a5ec7652f6c0beec87e11b3c31201",
    "theorem 5.4": "43542bf98a4d63c535b811d1947c179e06247bc17203459741cf7048b2d3b486",
    "theorem 5.5": "4f794cbf5ec8865939ee41cbce7e99d62731f7793c67f08d34e67e784a372be3",
    "theorem 5.6": "df2a8f3b6e6b3dfc75fd0d9569a3953da5c697346a3d5e4dad94c67cf6e63e3b",
    "theorem 5.7": "f48f0171952853e8ad0ddba933bcd944e899c1ba0e74e3f614b9417a27735bbe",
    "theorem 8.3": "26b02975c9b3841948318ea236801159743020eeec24aad1df427a15a6306290",
    "theorem 8.4": "63dc98e96ea28cc58a7672e556f5cc25daa8a543314ba8f370308e26a112d314",
}


@pytest.mark.parametrize("command", sorted(AUT_SEARCH_DIGESTS))
def test_automorphism_search_digest_is_pinned(command, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for n in (5, 7):
        for u in (2, 3):
            images = json.dumps([u * x % n for x in range(n)])
            (tmp_path / f"z{n}u{u}.json").write_text(images + "\n")
    assert cli.run(command.split()) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["report_digest"] == AUT_SEARCH_DIGESTS[command]


# Recorded while suites 4.4-4.6 were three functions, the cocycle condition
# was written out in each of its four users, orbits had four routines, and
# suite 5.1 checked every element of each Aut(G) instead of its generators.
# With `AUT_SEARCH_DIGESTS` these cover every default suite report.
SUITE_DIGESTS = {
    "theorem 3.1": "8640d724bdc401e07fd2018f1275d4e15721235c8f22dc051cb1c45854c242c1",
    "theorem 3.3": "0760bb782d1f079a3b14b2706e4000692df113321c9ca2149a34c7864a0d5ccc",
    "theorem 6.3": "4959232f313fe9e383253cfd8b9cfa38644dfc22db1c561686da21dee83df55a",
    "theorem 7.1": "9a8a998cf04b8af06b02763395d0eb8d386804293f4bf70b786e597d7c7447d6",
    "theorem 7.3": "c8e24d16babc18a96922bf1daf53a82a5a0098cb935b6bac35f8a159044a13a2",
    "theorem 8.2": "9320f90baf730330905880c24362c215dde6a7e86cf49cda4f2475fb60a6bcae",
    "theorem 9.1": "32395c9198d331834411f0c5d60da1ffc709cf16930b1b9a5302c2673bb41c18",
    "theorem 9.2": "8622d1af3ef3c62083bf1be1af95c2f0309f771afed4e37aa82eeb9241dfe45c",
    "theorem 4.3 --max-order 24": "4a026749a2da4a7afc388ef98c676cb7d86d85a6ab8cc51ede26620b1109c541",
    "theorem 4.4 --max-order 24": "7063babe3840acd949f7a46b3d32e1f89b3a641cbb3aa3c48640250e282073aa",
    "theorem 4.5 --max-order 24": "902aabf15f10bba1e42357cec13c96a62bbbda64deda729358833091d5f76f47",
    "theorem 4.6 --max-order 24": "f51fc03fd506c86098cd978ec5ac31838d247c54c90eccd33b3968ca5183f124",
    "theorem 9.1 --max-order 24": "220b9bc9bda7e69ee0b6900eee5fcac469ba6ea9563fa7820fdb4bfcc58856a8",
    "theorem 5.1 --max-order 16": "509abc5fe28a9f858b08ac1d58e4294ee1b95d6ef3b9ebdc5751863cadb617ae",
    "theorem 7.1 --seed 105": "d2446431b9cdfd66d33898e65fb88056f8333b5ae83be75fc0ec43e25a4be540",
    "theorem 9.2 --seed 103": "a6646f77791e63aa58810a158eac1bef6494248119bace2e679d56f1f784dc36",
}


@pytest.mark.parametrize("command", sorted(SUITE_DIGESTS))
def test_suite_digest_is_pinned(command, capsys):
    assert cli.run(command.split()) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["report_digest"] == SUITE_DIGESTS[command]


# Recorded while each suite read its options through `_opt`, restated them
# in its own report and built its cases in a loop of its own.  `--pretty`
# prints the keys of each case in dict order, which the sorted-key digests
# above cannot see.
PRETTY_SUITE_IDS = (
    "3.1", "3.3", "4.3", "4.4", "4.5", "4.6", "5.1", "5.2", "5.3", "5.4", "5.5",
    "5.6", "5.7", "6.3", "7.1", "7.3", "8.2", "8.3", "8.4", "9.1", "9.2",
)
PRETTY_SUITES_DIGEST = "d58c39325551a9ca2b7fcfa154944e9c94d06f322fc5a11af3e6321fc6655428"


def test_pretty_suite_output_is_pinned(capsys):
    """One sha256 over the stdout of `theorem ID --pretty` for every default suite, in id order."""
    text = ""
    for tid in PRETTY_SUITE_IDS:
        assert cli.run(["theorem", tid, "--pretty"]) == 0
        text += capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == PRETTY_SUITES_DIGEST


# Recorded while suite 5.5 built and checked its Z4^k case itself, before it
# read the case from suite 5.3's reflection check.  Each pin is the report
# digest and the sha256 of the `--pretty` stdout, which sees key order.
ELEMENTARY_SUITE_DIGESTS = {
    "theorem 5.5 --max-order 1": (
        "0a8a7e08ec60977cbb8b104dc86b40b33ec806bd613ed646f7eb36c5460a6e67",
        "6cbc1431bbe9339e71c72a03d5b6441da551688988c1677877c604800192cd9d",
    ),
    "theorem 5.5 --max-order 3": (
        "f58f93eeccc8140acbf617bc7c611fd1053ef6be4638a2dbc1f7aaef8201f18f",
        "7eb7d774ab8a158ac81d7e849bb850d7a5cd85c2366dc247685d57573a8da8bc",
    ),
    "theorem 5.5 --max-order 4 --cap-group 256": (
        "b92b1661df549131e2979dfef36d4fcf081931779e2dcb6544e435a5a5353b25",
        "f6cca4d77b7e62ff85b49ff7bf186d70b5f6ca61c59ae539f50fb0ca23e40f75",
    ),
}


@pytest.mark.parametrize("command", sorted(ELEMENTARY_SUITE_DIGESTS))
def test_elementary_suite_digest_is_pinned(command, capsys):
    digest, pretty = ELEMENTARY_SUITE_DIGESTS[command]
    assert cli.run(command.split()) == 0
    assert json.loads(capsys.readouterr().out)["report_digest"] == digest
    assert cli.run([*command.split(), "--pretty"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == pretty


# Recorded while `aut` closed its generators by Dimino's algorithm, listed
# all 9! elements and picked the generators greedily over the sorted list,
# before the group became a stabilizer chain with lazy elements.
CHAIN_DIGESTS = {
    "aut --trivial 9 --cap-order 9": "cee8ffba94b2cd752bd8ae7f199aa5e5e8c28dfffb27856f0c9ed8b94ca02483",
    # Recorded while the greedy generators were found by sifting through a
    # second stabilizer chain of their span, before they were read off the
    # group's own levels.  Each list spans many levels, several of them with
    # more than one generator.
    "aut --trivial 30 --cap-order 30": "772cb6872fd067165f5762c331cbec759e68f6ae0200ca3f400cd2d9ff74a3f4",
    "aut --dihedral 199 --cap-order 199": "bd5f63a1884bb2270b769354b19324adacbca39362b870ba5426617aafb7c1a3",
    "aut --conj Z2xQ8 --cap-order 16": "a9cf46d55bbf9dc13411c670da6cf99fe9c4310a30e479c183f0fcdaaa90f6d3",
    "aut --conj Z4xZ4 --cap-order 16": "5e2733a31a395d6e2aadec07e9b55845d8819b933eb4f79315e5cea8e596ecef",
}


@pytest.mark.parametrize("command", sorted(CHAIN_DIGESTS))
def test_stabilizer_chain_digest_is_pinned(command, capsys):
    assert cli.run(command.split()) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["report_digest"] == CHAIN_DIGESTS[command]


# Recorded while `fingroup.automorphism_group` listed every automorphism by
# its own backtrack over images of a greedy generating sequence, before it
# used the automorphism search of `quandle`.
GROUP_AUT_SPECS = (
    "Z2", "Z3", "Z4", "Z5", "Z6", "Z2xZ2", "Z2xZ2xZ2", "S3", "D4", "Q8",
    "Z3xZ3", "D5", "D6", "Z2xS3", "Z3xS3", "Z2xD4", "Z2xQ8", "Z4xZ4", "Z2xZ8",
    "Z2xZ2xZ2xZ2", "S4",
)
GROUP_AUT_DIGEST = "c87b1d8bc3fde0242383cf1fd32d27fd6aee7f6d2c1633b9c730d8e0b66b3f97"


def test_group_automorphisms_are_pinned():
    doc = []
    for spec in GROUP_AUT_SPECS:
        group = automorphism_group(make_group(spec))
        doc.append([[list(p.images) for p in group],
                    [list(p.images) for p in group.generators]])
    text = json.dumps(doc, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == GROUP_AUT_DIGEST


ENUMERATION_DIGESTS = {
    1: "7ae717c9aac47e3aed392515ac52ae17e50da8555c618e0ace9ee7b86985afea",
    2: "0e02b59cb15735ecbb3eea9769f56c53a5316f53377f97e44446f0548ce000ad",
    3: "5df479918eaaaf28dfd4cf9e0dd57586ea2a37a0f90acead6b30722a8cf9c63d",
    4: "87ba80bff77521668b020abc0b888657c452c44821a88bbb01bf2097c38992e9",
    5: "5576c0ab389a9eed849c314bfdf0c31e2245ba446ebebe461a1f31ef3039e548",
    6: "3ceaf33febfd8bbd9bcec01ceb971b4ebbb24d96b458ebd6cd3de82e8331307e",
    7: "385ebd4e3536603be3264c3d3c2a40a6cbd2fa8b4b740f8c6b48a14df6970aad",
}


@pytest.mark.parametrize("n", sorted(ENUMERATION_DIGESTS))
def test_enumeration_tables_are_pinned(n):
    tables = [[list(row) for row in q.table] for q in enumerate_quandles(n, cap=n)]
    doc = json.dumps(tables, separators=(",", ":"))
    assert hashlib.sha256(doc.encode()).hexdigest() == ENUMERATION_DIGESTS[n]


# Recorded on the commit before `compute_h2` reduced its condition matrix once
# per call, over the same matrices with the repeats dropped.
SNF_TRANSFORMS_DIGEST = "b69e72b6fc29a6dd8408f4f25cba2fa1507057d525ece6ff85a9d44064cdd832"


def test_smith_normal_form_transforms_are_pinned():
    """Seeded small matrices, then the condition and quotient matrices of H^2 over two bases."""
    rng = random.Random(47)
    mats = []
    for _ in range(60):
        m, n = rng.randrange(1, 9), rng.randrange(1, 6)
        mats.append([[rng.randrange(-6, 7) for _ in range(n)] for _ in range(m)])
    for q, moduli in ((build("dihedral", 5), (2, 3)), (build("trivial", 3), (4,))):
        mats.append(condition_matrix(q))
        cond = smith_form_of(mats[-1])
        mats += [quotient_matrix(q, m, cond) for m in moduli]
    distinct = []
    for mat in mats:
        if mat not in distinct:
            distinct.append(mat)
    assert len(distinct) == 65
    forms = [smith_form_of(mat) for mat in distinct]
    doc = json.dumps([[dense_d(s), *dense_transforms(s)[:2]] for s in forms], separators=(",", ":"))
    assert hashlib.sha256(doc.encode()).hexdigest() == SNF_TRANSFORMS_DIGEST


# Recorded before the pivot scan stopped at the first unit and the
# divisibility scan was skipped under a unit pivot.
SNF_UNIT_PIVOT_DIGEST = "d6305ebd01f1e49ba0ba3e990f392746ce1ef30b56c796e11e9ea36404db6ad4"


def test_smith_normal_form_transforms_are_pinned_where_pivots_are_units():
    """Condition matrices (nearly every pivot is a unit), then seeded matrices with no unit entry."""
    forms = [smith_form_of(condition_matrix(build(kind, n)))
             for kind, n in (("dihedral", 6), ("dihedral", 7), ("trivial", 6))]
    rng = random.Random(53)
    values = (0, 0, 0, 2, -2, 3, -3, 4, -4, 6, -6, 9, -9, 10, -15)
    for _ in range(20):
        m, n = rng.randrange(2, 9), rng.randrange(2, 9)
        forms.append(smith_form_of([[rng.choice(values) for _ in range(n)] for _ in range(m)]))
    doc = json.dumps([[dense_d(s), *dense_transforms(s)[:2]] for s in forms], separators=(",", ":"))
    assert hashlib.sha256(doc.encode()).hexdigest() == SNF_UNIT_PIVOT_DIGEST


# Re-recorded when `compute_h2` moved to one elimination per modulus, with
# representatives fixed by a rule on the module; `H2_MULTI_FACTORS` below
# holds the factors recorded before the move.
H2_MULTI_FACTOR_COEFFICIENTS = ((4, 2), (2, 2, 3), (6, 4), (8, 12), (9, 3))
H2_MULTI_FACTOR_DIGEST = "bb756082672cb6fda4c5612d81c1cfbe491002bfb2b46f653654669f03306c58"


def test_h2_over_multi_factor_coefficients_is_pinned():
    """Invariant factors and representative tables over five multi-factor coefficient groups."""
    bases = [build("trivial", 2), build("trivial", 3), build("dihedral", 3),
             build("dihedral", 4), build("dihedral", 5), conj_quandle(make_group("S3"))]
    doc = []
    for q in bases:
        for moduli in H2_MULTI_FACTOR_COEFFICIENTS:
            factors, reps = cocycle.compute_h2(q, moduli)
            doc.append([list(factors), [[[list(v) for v in row] for row in r.table] for r in reps]])
    text = json.dumps(doc, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == H2_MULTI_FACTOR_DIGEST


# One row per base of the test above, one entry per coefficient group.
H2_MULTI_FACTORS = (
    (
        (2,) * 2 + (4,) * 2,
        (2,) * 2 + (6,) * 2,
        (2,) * 2 + (12,) * 2,
        (4,) * 2 + (24,) * 2,
        (3,) * 2 + (9,) * 2,
    ),
    (
        (2,) * 6 + (4,) * 6,
        (2,) * 6 + (6,) * 6,
        (2,) * 6 + (12,) * 6,
        (4,) * 6 + (24,) * 6,
        (3,) * 6 + (9,) * 6,
    ),
    ((),) * 5,
    (
        (2,) * 6 + (4,) * 2,
        (2,) * 6 + (6,) * 2,
        (2,) * 6 + (12,) * 2,
        (2,) * 4 + (4,) * 2 + (24,) * 2,
        (3,) * 2 + (9,) * 2,
    ),
    ((),) * 5,
    (
        (2,) * 6 + (4,) * 6,
        (2,) * 5 + (6,) * 7,
        (2,) * 5 + (6,) + (12,) * 6,
        (4,) * 5 + (12,) + (24,) * 6,
        (3,) * 8 + (9,) * 6,
    ),
)


def test_h2_factors_over_multi_factor_coefficients_are_pinned():
    bases = [build("trivial", 2), build("trivial", 3), build("dihedral", 3),
             build("dihedral", 4), build("dihedral", 5), conj_quandle(make_group("S3"))]
    for q, row in zip(bases, H2_MULTI_FACTORS, strict=True):
        for moduli, factors in zip(H2_MULTI_FACTOR_COEFFICIENTS, row, strict=True):
            assert cocycle.compute_h2(q, moduli)[0] == factors


# Recorded while `cocycle_stabilizer` checked its pairs for the identity and
# for closure by multiplying every pair by every pair, before it certified
# them by the order of the stabilizer chain they generate.
STABILIZER_DIGEST = "cf725549a98078355a8209399d0fb01735263271f86380d565f2cc041fdc58f4"


def test_cocycle_stabilizers_are_pinned():
    """The stabilizer of every cocycle of suite 7.3's corpus, in search order."""
    doc = []
    for kind, n in (("trivial", 2), ("dihedral", 3)):
        for s in (2, 3):
            for alpha in cocycle.all_constant_cocycles(build(kind, n), s):
                # the sorted walk of phi + (n + theta), split into its pairs
                stab = cocycle.cocycle_stabilizer(alpha)
                doc.append([[list(g.images[:n]), [v - n for v in g.images[n:]]] for g in stab])
    assert len(doc) == 80
    text = json.dumps(doc, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == STABILIZER_DIGEST
