mov rax, --5
mov rax, 0x-5
add rcx, +-7
