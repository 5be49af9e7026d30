#!/usr/bin/env bash
# Full offline issuance / presentation / gate walkthrough.
#
# Usage: scripts/e2e_demo.sh [WORKDIR] [SEED]
# With a SEED every file produced is bit-reproducible.
set -euo pipefail

# Run the CLI from this checkout's src/, installed or not.
SRC="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)/src"
abcid() { PYTHONPATH="$SRC${PYTHONPATH:+:$PYTHONPATH}" python3 -m abcid "$@"; }

WORK="${1:-$(mktemp -d)}"
SEED="${2:-}"
S=(); [ -n "$SEED" ] && S=(--seed "$SEED")
mkdir -p "$WORK"
cd "$WORK"

NONCE_ISSUE=0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a
NONCE_SHOW=0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b
CTX='medical_files|patient_file|record_42|write'

echo '== issuer provisions a key pair (512-bit test profile) =='
abcid issuer init --issuer-id clinic --attrs 1 --l-n 512 \
    --key sk.json --issuer-pub pk.json "${S[@]}"

echo '== holder creates a wallet and requests a credential =='
abcid holder keygen --wallet wallet.json --issuer-pub pk.json "${S[@]}"
abcid holder request --wallet wallet.json --issuer-pub pk.json \
    --nonce "$NONCE_ISSUE" --state state.json --out request.json "${S[@]}"

echo '== issuer signs the blinded request =='
cat > claims.json <<'EOF'
{
  "schema_id": "staff_v1",
  "credential_id": "c_demo",
  "issued_at": "2026-02-02",
  "claims": [{"name": "medical_staff", "value": "true"}]
}
EOF
abcid issuer issue --key sk.json --issuer-pub pk.json --in request.json \
    --claims claims.json --nonce "$NONCE_ISSUE" --out precred.json "${S[@]}"

echo '== holder completes and lists the credential =='
abcid holder complete --wallet wallet.json --issuer-pub pk.json \
    --in precred.json --state state.json --label "clinic staff card"
abcid holder list --wallet wallet.json

echo '== holder shows it, verifier checks it =='
abcid holder present --wallet wallet.json --issuer-pub pk.json \
    --credential c_demo --disclose medical_staff \
    --nonce "$NONCE_SHOW" --context "$CTX" --out presentation.json "${S[@]}"
abcid verifier verify --in presentation.json --issuer-pub pk.json \
    --nonce "$NONCE_SHOW" --context "$CTX"

echo '== reference fixture: two shows open the medical_files domain =='
abcid fixture emit --out-dir fixture "${S[@]}"
abcid holder present --wallet fixture/wallet.json \
    --issuer-pub fixture/campus_office.pub.json --credential c1 \
    --disclose medical_staff --nonce "$NONCE_SHOW" --context "$CTX" \
    --out p1.json "${S[@]}"
abcid holder present --wallet fixture/wallet.json \
    --issuer-pub fixture/campus_office.pub.json --credential c5 \
    --disclose school_member --nonce "$NONCE_SHOW" --context "$CTX" \
    --out p5.json "${S[@]}"
abcid gate eval --registry fixture/registry.json \
    --domain medical_files --action write --rtype patient_file \
    --rname record_42 --at 2026-08-03T09:00:00Z --nonce "$NONCE_SHOW" \
    --presentation p1.json --presentation p5.json \
    --issuer-pub fixture/campus_office.pub.json \
    --issuer-pub fixture/registry_office.pub.json \
    --policy fixture/policies/medical_files_write.pol \
    --policy fixture/policies/students_marks_read.pol \
    --policy fixture/policies/library_audio_read.pol \
    --policy fixture/policies/staff_bus_board.pol

echo "== done; artifacts in $WORK =="
