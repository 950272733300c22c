MOV QWORD PTR [RAX], RBX
mov qword PTR [rax], rbx
mov QWORD ptr [rax], rbx
