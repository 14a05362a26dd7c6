"""Pinned digests of outputs that faster algorithms must leave unchanged.

Each `report_digest` covers the printed generators and orders, so a change
to how groups are closed or how their generating sets are chosen that
alters any output byte shows up here.  The digests were recorded with the
breadth-first closure that preceded the coset closure in `perm`.

The enumeration digests cover the representative tables of every class,
in output order.  They were recorded with the enumeration that built every
labeled table and the full S_n product table, before labelings were
ordered by element invariants.
"""

import hashlib
import json

import pytest

from quandlekit import cli
from quandlekit.quandle import enumerate_quandles

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


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_report_digest_is_pinned(command, capsys):
    assert cli.run(command.split()) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["report_digest"] == DIGESTS[command]


ENUMERATION_DIGESTS = {
    1: "7ae717c9aac47e3aed392515ac52ae17e50da8555c618e0ace9ee7b86985afea",
    2: "0e02b59cb15735ecbb3eea9769f56c53a5316f53377f97e44446f0548ce000ad",
    3: "5df479918eaaaf28dfd4cf9e0dd57586ea2a37a0f90acead6b30722a8cf9c63d",
    4: "87ba80bff77521668b020abc0b888657c452c44821a88bbb01bf2097c38992e9",
    5: "5576c0ab389a9eed849c314bfdf0c31e2245ba446ebebe461a1f31ef3039e548",
    6: "3ceaf33febfd8bbd9bcec01ceb971b4ebbb24d96b458ebd6cd3de82e8331307e",
}


@pytest.mark.parametrize("n", sorted(ENUMERATION_DIGESTS))
def test_enumeration_tables_are_pinned(n):
    tables = [[list(row) for row in q.table] for q in enumerate_quandles(n)]
    doc = json.dumps(tables, separators=(",", ":"))
    assert hashlib.sha256(doc.encode()).hexdigest() == ENUMERATION_DIGESTS[n]
